package submit

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/faultfs"
)

// defaultFS is the real OS behind the "submit.persist.*" failpoint
// sites — what a pipeline runs on unless Config.FS overrides it.
var defaultFS = faultfs.Instrument(faultfs.OS{}, "submit.persist")

// storeFS resolves Config.FS to the store's working filesystem,
// wrapping overrides with the same failpoint sites the default carries
// so a spec behaves identically on both.
func storeFS(override faultfs.FS) faultfs.FS {
	if override == nil {
		return defaultFS
	}
	return faultfs.Instrument(override, "submit.persist")
}

// subFileName renders the per-submission file name. IDs are
// content-addressed hex, so they are filesystem-safe by construction.
func subFileName(id string) string { return id + ".json" }

// persistLocked durably writes one submission record. Callers hold
// p.mu. With no StateDir the pipeline is memory-only and this is a
// no-op. Persistence reuses the dist atomic-write discipline
// (write-temp → fsync → rename → dir-fsync), so a crash leaves either
// the previous complete record or the new one.
func (p *Pipeline) persistLocked(s *Submission) {
	if p.cfg.StateDir == "" {
		return
	}
	blob, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		// Submission records are plain data; marshal cannot fail on
		// them. Keep the invariant visible rather than silent.
		panic(fmt.Sprintf("submit: marshal %s: %v", s.ID, err))
	}
	if err := dist.WriteFileAtomicFS(p.fsys, p.cfg.StateDir, subFileName(s.ID), blob); err != nil {
		// Persistence is best-effort durability, not correctness: the
		// in-memory record stays authoritative for this process. Record
		// the failure on the record itself so operators see it, and on
		// the counter so they can alert on it.
		p.persistFailures.Add(1)
		s.Verdicts = append(s.Verdicts, Verdict{
			Stage: "persist", Passed: false, Detail: err.Error(), At: time.Now(),
		})
	}
}

// load restores every persisted submission. A submission caught
// mid-check by a crash (state "checking") re-enqueues as pending — its
// verdicts are partial and will be recomputed. A corrupt record —
// truncated JSON, garbage bytes, an ID that disagrees with its file
// name — is quarantined (renamed to <name>.corrupt and counted) and the
// rest of the store still loads; one rotten file must not take the
// whole write path down at startup. A missing directory is simply an
// empty store.
func (p *Pipeline) load() error {
	entries, err := p.fsys.ReadDir(p.cfg.StateDir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("submit: state dir: %w", err)
	}
	var loaded []*Submission
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
			continue
		}
		blob, err := p.fsys.ReadFile(filepath.Join(p.cfg.StateDir, name))
		if err != nil {
			return fmt.Errorf("submit: read %s: %w", name, err)
		}
		var s Submission
		if err := json.Unmarshal(blob, &s); err != nil {
			if qerr := p.quarantine(name); qerr != nil {
				return fmt.Errorf("submit: decode %s: %w (quarantine also failed: %v)", name, err, qerr)
			}
			continue
		}
		if s.ID == "" || s.ID != strings.TrimSuffix(name, ".json") {
			if qerr := p.quarantine(name); qerr != nil {
				return fmt.Errorf("submit: %s: ID %q does not match file name (quarantine also failed: %v)", name, s.ID, qerr)
			}
			continue
		}
		if s.State == StateChecking {
			s.State = StatePending
			s.Verdicts = nil
			s.RejectedStage = ""
			s.Risk = nil
		}
		loaded = append(loaded, &s)
	}
	sort.Slice(loaded, func(i, j int) bool { return loaded[i].CreatedAt.Before(loaded[j].CreatedAt) })
	for _, s := range loaded {
		p.subs[s.ID] = s
		p.order = append(p.order, s.ID)
	}
	return nil
}

// quarantine renames a corrupt record aside so the next load skips it
// (".corrupt" fails the ".json" suffix filter) while keeping the bytes
// for a human to inspect.
func (p *Pipeline) quarantine(name string) error {
	path := filepath.Join(p.cfg.StateDir, name)
	if err := p.fsys.Rename(path, path+".corrupt"); err != nil {
		return err
	}
	p.quarantined.Add(1)
	return nil
}

// PendingIDs lists submissions awaiting processing, oldest first —
// what a restarted server re-enqueues.
func (p *Pipeline) PendingIDs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for _, id := range p.order {
		if p.subs[id].State == StatePending {
			out = append(out, id)
		}
	}
	return out
}
