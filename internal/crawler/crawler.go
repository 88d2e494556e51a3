// Package crawler is a small concurrent web crawler that collects the
// raw material of the paper's methodology: unique hostnames and
// aggregated page-host → request-host pairs. Pointed at the synthetic
// web of package webworld it re-collects (a subset of) the HTTP Archive
// snapshot over real HTTP; pointed at anything else it produces the
// same structures for the analysis pipeline.
package crawler

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"repro/internal/domain"
)

// Config parameterises a crawl.
type Config struct {
	// Seeds are the starting page URLs.
	Seeds []string
	// MaxPages bounds how many pages are fetched. Default 100.
	MaxPages int
	// Concurrency is the number of fetch workers. Default 4.
	Concurrency int
	// Client performs the requests; tests supply one whose transport
	// dials every host to a local server. Default http.DefaultClient.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.MaxPages == 0 {
		c.MaxPages = 100
	}
	if c.Concurrency == 0 {
		c.Concurrency = 4
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	return c
}

// Pair is an aggregated page→request edge, by hostname.
type Pair struct {
	PageHost, ReqHost string
	Count             int
}

// Result is the crawl output.
type Result struct {
	// Hosts are the unique hostnames observed (pages and resources),
	// sorted.
	Hosts []string
	// Pairs are the aggregated request edges, sorted.
	Pairs []Pair
	// Pages is the number of pages fetched.
	Pages int
	// Errors counts failed fetches (the crawl continues past them).
	Errors int
}

// ErrNoSeeds reports an empty seed list.
var ErrNoSeeds = errors.New("crawler: no seeds")

// Crawl walks the page graph breadth-first from the seeds, recording
// subresource requests and following links until MaxPages is reached
// or the frontier empties.
func Crawl(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Seeds) == 0 {
		return nil, ErrNoSeeds
	}

	var (
		mu       sync.Mutex
		visited  = make(map[string]bool)
		hosts    = make(map[string]bool)
		pairs    = make(map[[2]string]int)
		frontier = make([]string, 0, len(cfg.Seeds))
		inFlight int
		pages    int
		errs     int
	)
	for _, s := range cfg.Seeds {
		frontier = append(frontier, s)
	}

	cond := sync.NewCond(&mu)
	done := func() bool {
		return (len(frontier) == 0 && inFlight == 0) || pages >= cfg.MaxPages || ctx.Err() != nil
	}

	worker := func() {
		for {
			mu.Lock()
			for len(frontier) == 0 && inFlight > 0 && pages < cfg.MaxPages && ctx.Err() == nil {
				cond.Wait()
			}
			if done() {
				mu.Unlock()
				cond.Broadcast()
				return
			}
			url := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			pageHost := domain.Host(url)
			if visited[pageHost] {
				mu.Unlock()
				continue
			}
			visited[pageHost] = true
			pages++
			inFlight++
			mu.Unlock()

			page, err := fetchPage(ctx, cfg.Client, url)

			mu.Lock()
			inFlight--
			if err != nil {
				errs++
			} else {
				hosts[pageHost] = true
				for _, res := range page.resources {
					h := domain.Host(res)
					if h == "" {
						continue
					}
					hosts[h] = true
					if h != pageHost { // self requests are dropped
						pairs[[2]string{pageHost, h}]++
					}
				}
				for _, link := range page.links {
					h := domain.Host(link)
					if h != "" && !visited[h] {
						frontier = append(frontier, link)
					}
				}
			}
			cond.Broadcast()
			mu.Unlock()
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < cfg.Concurrency; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); worker() }()
	}
	wg.Wait()

	res := &Result{Pages: pages, Errors: errs}
	for h := range hosts {
		res.Hosts = append(res.Hosts, h)
	}
	sort.Strings(res.Hosts)
	for k, n := range pairs {
		res.Pairs = append(res.Pairs, Pair{PageHost: k[0], ReqHost: k[1], Count: n})
	}
	sort.Slice(res.Pairs, func(i, j int) bool {
		if res.Pairs[i].PageHost != res.Pairs[j].PageHost {
			return res.Pairs[i].PageHost < res.Pairs[j].PageHost
		}
		return res.Pairs[i].ReqHost < res.Pairs[j].ReqHost
	})
	return res, ctx.Err()
}

// pageContent is the parsed form of one fetched page.
type pageContent struct {
	resources []string // src= URLs (subresource requests)
	links     []string // href= URLs (navigation)
}

// fetchPage GETs a page and extracts its resource and link URLs.
func fetchPage(ctx context.Context, client *http.Client, url string) (*pageContent, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return nil, fmt.Errorf("crawler: %s returned %s", url, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, err
	}
	page := &pageContent{}
	page.resources = extractAttr(string(body), `src="`)
	page.links = extractAttr(string(body), `href="`)
	return page, nil
}

// extractAttr scans HTML for attribute values introduced by the given
// prefix (e.g. `src="`). A hand-rolled scanner keeps the repository
// stdlib-only; it handles the well-formed HTML the synthetic web emits
// and degrades gracefully elsewhere.
func extractAttr(html, prefix string) []string {
	var out []string
	for i := 0; ; {
		j := strings.Index(html[i:], prefix)
		if j < 0 {
			break
		}
		start := i + j + len(prefix)
		end := strings.IndexByte(html[start:], '"')
		if end < 0 {
			break
		}
		v := html[start : start+end]
		if strings.HasPrefix(v, "http://") || strings.HasPrefix(v, "https://") {
			out = append(out, v)
		}
		i = start + end + 1
	}
	return out
}
