// Update strategies under failure: the paper's Table 1 distinguishes
// projects that never update their list, update at build time, or
// update at startup — all falling back to an embedded copy when the
// fetch fails. This example runs each strategy against a local server
// (a stand-in for publicsuffix.org) with injected failures and shows
// the resulting list ages and privacy decisions.
//
// Run with:
//
//	go run ./examples/updater
package main

import (
	"context"
	"fmt"
	"net/http/httptest"

	"repro/internal/failpoint"
	"repro/internal/fetch"
	"repro/internal/history"
	"repro/internal/psl"
)

func main() {
	h := history.Generate(history.Config{Seed: history.DefaultSeed})
	server := fetch.NewServer(h)
	ts := httptest.NewServer(server)
	defer ts.Close()

	// Every project shipped with the same 2-year-old embedded copy.
	embedded := h.ListAt(h.IndexForAge(730))
	now := history.MeasurementDate

	// The network condition is a fault spec on the list server's
	// fetch.list site; an empty spec leaves the network fine.
	run := func(label string, strategy fetch.Strategy, faults string) {
		failpoint.DisarmAll()
		if err := failpoint.Arm(faults, 1); err != nil {
			panic(err)
		}
		client := fetch.NewClient(ts.URL + fetch.ListPath)
		u := fetch.NewUpdater(embedded, client, strategy, 0)
		u.Start(context.Background())

		ageDays := int(u.ListAge(now).Hours() / 24)
		succ, fail := u.Stats()
		verdict := decide(u.Current())
		fmt.Printf("%-34s failures=%d successes=%d  list age=%4dd  fallback=%-5v  %s\n",
			label, fail, succ, ageDays, u.UsingFallback(), verdict)
	}

	fmt.Println("strategy (network condition)        update stats        effective list      bad-store decision")
	fmt.Println("---------------------------------------------------------------------------------------------")
	run("fixed (network fine)", fetch.StrategyFixed, "")
	run("startup update (network fine)", fetch.StrategyOnStartup, "")
	run("startup update (network DOWN)", fetch.StrategyOnStartup, "fetch.list=status(1)")
	run("build-time update (network fine)", fetch.StrategyAtBuild, "")

	fmt.Println()
	fmt.Println("The failing updater silently keeps its 730-day-old copy — the")
	fmt.Println("\"updated\" projects the paper warns about (median fallback age: 915 days).")
}

// decide reports how an application using the list would treat two
// myshopify tenants.
func decide(l *psl.List) string {
	if l.SameSite("good-store.myshopify.com", "bad-store.myshopify.com") {
		return "tenants MERGED (harmful)"
	}
	return "tenants separated (correct)"
}
