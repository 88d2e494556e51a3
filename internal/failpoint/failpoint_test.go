package failpoint

import (
	"errors"
	"strings"
	"syscall"
	"testing"
)

// reset returns the registry to a quiet state between tests. Sites
// themselves persist (they are process-global by design); what matters
// is that nothing stays armed.
func reset(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		DisarmAll()
		SetObserve(false)
		StopTrace()
	})
	DisarmAll()
	SetObserve(false)
}

func TestParseSpec(t *testing.T) {
	good := []string{
		"",
		"a.b.c=err(1)",
		"a.b.c=err(0.5,seed=7,after=3,limit=2,errno=ENOSPC)",
		"a=crash(1);b=err(0.25);c=off",
		" a = err(1) ; b = crash(0.2,seed=9) ",
		"a=status(0.1)|truncate(0.2,seed=3)|delay(0.1,ms=5)",
		"a=stall(1,ms=100);b=bitflip(0.5,after=2,limit=1);c=reset(0)",
	}
	for _, spec := range good {
		if _, err := parse(spec); err != nil {
			t.Errorf("Parse(%q) = %v, want nil", spec, err)
		}
	}
	bad := []string{
		"a.b.c",                      // no action
		"=err(1)",                    // no name
		"a=boom(1)",                  // unknown kind
		"a=err(2)",                   // p out of range
		"a=err(1,seed=0)",            // zero seed reserved for "derive"
		"a=err(1,after=-1)",          // negative after
		"a=err(1,errno=EWOULDBLOCK)", // unknown errno
		"a=crash(1,errno=EIO)",       // errno on crash
		"a=err(1,wat=1)",             // unknown key
		"a=err(1);a=err(1)",          // duplicate site
		"a=err",                      // missing parens
		"a=err(0.5)|status(0.1)",     // storage and HTTP mixed
		"a=status(0.6)|reset(0.6)",   // probabilities above 1
		"a=delay(1,ms=0)",            // non-positive ms
		"a=reset(1,ms=5)",            // ms on an action without a duration
		"a=status(1,errno=EIO)",      // errno on an HTTP action
		"a=reset(0.1,seed=1)|bitflip(0.1,seed=2)", // two seeds for one RNG
	}
	for _, spec := range bad {
		if _, err := parse(spec); err == nil {
			t.Errorf("Parse(%q) = nil, want error", spec)
		}
	}
}

func TestInjectErrAlwaysAndSentinels(t *testing.T) {
	reset(t)
	fp := New("test.inject.always")
	if err := fp.Inject(); err != nil {
		t.Fatalf("disarmed Inject = %v, want nil", err)
	}
	before := fp.Triggers()
	if err := Arm("test.inject.always=err(1,errno=ENOSPC)", 1); err != nil {
		t.Fatal(err)
	}
	err := fp.Inject()
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Inject = %v, want ErrInjected", err)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Inject = %v, want errors.Is ENOSPC", err)
	}
	if got := fp.Triggers() - before; got != 1 {
		t.Fatalf("Triggers = %d, want 1", got)
	}
	Disarm("test.inject.always")
	if err := fp.Inject(); err != nil {
		t.Fatalf("re-disarmed Inject = %v, want nil", err)
	}
}

func TestAfterAndLimit(t *testing.T) {
	reset(t)
	fp := New("test.inject.window")
	if err := Arm("test.inject.window=err(1,after=2,limit=3)", 1); err != nil {
		t.Fatal(err)
	}
	var fired int
	for i := 0; i < 10; i++ {
		if fp.Inject() != nil {
			fired++
			if i < 2 {
				t.Fatalf("fired on hit %d, inside after window", i)
			}
		}
	}
	if fired != 3 {
		t.Fatalf("fired %d times, want limit=3", fired)
	}
}

func TestCrashPanicsWithCrashValue(t *testing.T) {
	reset(t)
	fp := New("test.inject.crash")
	if err := Arm("test.inject.crash=crash(1)", 1); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		c, ok := r.(Crash)
		if !ok {
			t.Fatalf("recovered %#v, want Crash", r)
		}
		if c.Name != "test.inject.crash" {
			t.Fatalf("Crash.Name = %q", c.Name)
		}
	}()
	_ = fp.Inject()
	t.Fatal("Inject returned instead of panicking")
}

// TestDeterministicSchedule is the determinism contract: the same
// (spec, seed) produces a byte-identical decision transcript.
func TestDeterministicSchedule(t *testing.T) {
	reset(t)
	fps := []*Failpoint{
		New("test.sched.a"),
		New("test.sched.b"),
	}
	run := func(seed int64) string {
		DisarmAll()
		if err := Arm("test.sched.a=err(0.4);test.sched.b=err(0.7,seed=99)", seed); err != nil {
			t.Fatal(err)
		}
		StartTrace()
		for i := 0; i < 50; i++ {
			_ = fps[i%2].Inject()
		}
		return StopTrace()
	}
	first := run(42)
	if !strings.Contains(first, "err") || !strings.Contains(first, "pass") {
		t.Fatalf("schedule with p=0.4 should mix err and pass:\n%s", first)
	}
	if second := run(42); second != first {
		t.Fatalf("same seed produced different schedules:\n--- first\n%s--- second\n%s", first, second)
	}
	if other := run(43); other == first {
		t.Fatal("different base seed produced the identical schedule (per-site RNG not seeded from base)")
	}
}

func TestObserveCountsDisarmedHits(t *testing.T) {
	reset(t)
	fp := New("test.observe.site")
	before := fp.Hits()
	_ = fp.Inject() // not observing: free, uncounted
	if fp.Hits() != before {
		t.Fatal("disarmed non-observing Inject counted a hit")
	}
	SetObserve(true)
	_ = fp.Inject()
	_ = fp.Inject()
	if got := fp.Hits() - before; got != 2 {
		t.Fatalf("observed hits = %d, want 2", got)
	}
	if HitCounts()["test.observe.site"] != fp.Hits() {
		t.Fatal("HitCounts disagrees with site accessor")
	}
}

func TestArmRegistersUnknownSites(t *testing.T) {
	reset(t)
	if err := Arm("test.arm.lazysite=err(1)", 1); err != nil {
		t.Fatal(err)
	}
	// The owning component constructs its site after arming.
	fp := New("test.arm.lazysite")
	if fp.Inject() == nil {
		t.Fatal("site armed before New was not shared with the late registration")
	}
}

// TestDisarmedInjectZeroAlloc pins the production cost of a compiled-in
// site: no allocations on the disarmed path.
func TestDisarmedInjectZeroAlloc(t *testing.T) {
	reset(t)
	fp := New("test.alloc.site")
	if n := testing.AllocsPerRun(1000, func() { _ = fp.Inject() }); n != 0 {
		t.Fatalf("disarmed Inject allocates %v per call, want 0", n)
	}
	SetObserve(true)
	if n := testing.AllocsPerRun(1000, func() { _ = fp.Inject() }); n != 0 {
		t.Fatalf("observing disarmed Inject allocates %v per call, want 0", n)
	}
}

func TestTriggerCountsAndList(t *testing.T) {
	reset(t)
	New("test.counts.site")
	found := false
	for _, name := range List() {
		if name == "test.counts.site" {
			found = true
		}
	}
	if !found {
		t.Fatal("List missing a registered site")
	}
	if _, ok := TriggerCounts()["test.counts.site"]; !ok {
		t.Fatal("TriggerCounts missing a registered site")
	}
	if Triggers("no.such.site") != 0 {
		t.Fatal("Triggers of unknown site should be 0")
	}
}
