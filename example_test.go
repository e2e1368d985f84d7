package restore_test

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	restore "repro"
)

// must stops an example at its first error.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// The paper's running example (§2). Q1 joins page views with users; Q2 runs
// the same join and then aggregates. Executing Q1 stores its projections and
// join output, and Q2 is rewritten to reuse them instead of re-scanning the
// base data (Figures 2-4 of the paper). Running Q2 again reuses the stored
// join and re-runs only the aggregation: user-named outputs enter the
// repository only under WithRegisterFinalOutputs.
func Example_quickstart() {
	const q1 = `
A = load 'page_views' as (user, timestamp:long, est_revenue:double, page_info, page_links);
B = foreach A generate user, est_revenue;
alpha = load 'users' as (name, phone, address, city);
beta = foreach alpha generate name;
C = join beta by name, B by user;
store C into 'out/q1';`
	const q2 = `
A = load 'page_views' as (user, timestamp:long, est_revenue:double, page_info, page_links);
B = foreach A generate user, est_revenue;
alpha = load 'users' as (name, phone, address, city);
beta = foreach alpha generate name;
C = join beta by name, B by user;
D = group C by $0;
E = foreach D generate group, SUM(C.est_revenue);
store E into 'out/q2';`

	sys := restore.New() // reuse on, Aggressive heuristic: the paper's default

	rng := rand.New(rand.NewSource(7))
	var views, users []string
	filler := strings.Repeat("x", 150) // page_info/page_links dominate row width
	for i := 0; i < 2000; i++ {
		views = append(views, fmt.Sprintf("user%03d\t%d\t%.2f\t%s\t%s",
			rng.Intn(100), rng.Intn(86400), rng.Float64()*10, filler, filler))
	}
	for i := 0; i < 100; i++ {
		users = append(users, fmt.Sprintf("user%03d\t555-%04d\taddr\tcity", i, i))
	}
	must(sys.LoadTSV("page_views", "user:chararray, timestamp:long, est_revenue:double, page_info, page_links", views, 4))
	must(sys.LoadTSV("users", "name:chararray, phone, address, city", users, 2))
	// Bill simulated time as if page_views were 150 GB (the paper's large
	// instance); execution itself stays small.
	must(sys.SetDataScale("page_views", 150<<30))

	r1, err := sys.Execute(q1)
	must(err)
	fmt.Printf("Q1: jobs=%d simulated=%v registered=%d\n", len(r1.Jobs), r1.SimulatedTime.Round(time.Second), r1.Registered)

	r2, err := sys.Execute(q2)
	must(err)
	fmt.Printf("Q2: jobs=%d simulated=%v\n", len(r2.Jobs), r2.SimulatedTime.Round(time.Second))
	for _, rw := range r2.Rewrites {
		kind := "sub-plan"
		if rw.WholeJob {
			kind = "whole job"
		}
		fmt.Printf("  reused %s (%s)\n", rw.OutputPath, kind)
	}
	rows, err := sys.ReadOutputTSV(r2, "out/q2")
	must(err)
	fmt.Printf("Q2 rows=%d first=%q\n", len(rows), rows[0])

	r3, err := sys.Execute(q2)
	must(err)
	fmt.Printf("Q2 again: jobs=%d reused=%d output=%s\n", len(r3.Jobs), len(r3.Rewrites), r3.Outputs["out/q2"])
	// Output:
	// Q1: jobs=1 simulated=13m29s registered=2
	// Q2: jobs=2 simulated=8m4s
	//   reused restore/sub/s2 (sub-plan)
	//   reused restore/sub/s1 (sub-plan)
	// Q2 rows=100 first="user000\t87.39000000000001"
	// Q2 again: jobs=1 reused=4 output=out/q2
}

// Repository management over time (§5). A retailer runs the same nightly
// reports; each night the sales fact table is refreshed, so Rule 4 evicts
// yesterday's stored results instead of serving stale data, and a Rule-3
// window bounds how long unused results stay. Within one night the second
// and third reports reuse the first's work.
func Example_warehouse() {
	const prefix = `
sales = load 'warehouse/sales' as (sku, store_id, qty:int, price:double, day:int, note);
net = filter sales by qty > 0;
line = foreach net generate sku, store_id, qty * price as amount;
`
	reports := []struct{ name, src string }{
		{"revenue-by-sku", prefix + `
g = group line by sku;
rep = foreach g generate group, SUM(line.amount);
store rep into 'reports/revenue_by_sku';`},
		{"revenue-by-store", prefix + `
g = group line by store_id;
rep = foreach g generate group, SUM(line.amount);
store rep into 'reports/revenue_by_store';`},
		{"units-by-store", prefix + `
g = group line by store_id;
rep = foreach g generate group, COUNT(line);
store rep into 'reports/units_by_store';`},
	}

	sys := restore.New(restore.WithPolicy(restore.Policy{
		KeepAll:            true,
		EvictionWindow:     4, // Rule 3: unused entries expire after 4 workflows
		CheckInputVersions: true,
	}))
	for day := 1; day <= 3; day++ {
		// The nightly ETL rewrites the fact table, bumping its DFS version.
		rng := rand.New(rand.NewSource(int64(day)))
		lines := make([]string, 3000)
		for i := range lines {
			lines[i] = fmt.Sprintf("sku%04d\tstore%02d\t%d\t%.2f\t%d\tnote",
				rng.Intn(500), rng.Intn(25), rng.Intn(12), 1+rng.Float64()*99, day)
		}
		must(sys.LoadTSV("warehouse/sales", "sku, store_id, qty:int, price:double, day:int, note", lines, 4))
		must(sys.SetDataScale("warehouse/sales", 60<<30))
		fmt.Printf("night %d\n", day)
		for _, rep := range reports {
			res, err := sys.Execute(rep.src)
			must(err)
			fmt.Printf("  %-16s jobs=%d reused=%d evicted=%d repo=%d\n",
				rep.name, len(res.Jobs), len(res.Rewrites), len(res.Evicted), sys.Repository().Len())
		}
	}
	// Output:
	// night 1
	//   revenue-by-sku   jobs=1 reused=0 evicted=0 repo=3
	//   revenue-by-store jobs=1 reused=1 evicted=0 repo=4
	//   units-by-store   jobs=1 reused=2 evicted=0 repo=4
	// night 2
	//   revenue-by-sku   jobs=1 reused=0 evicted=4 repo=3
	//   revenue-by-store jobs=1 reused=1 evicted=0 repo=4
	//   units-by-store   jobs=1 reused=2 evicted=0 repo=4
	// night 3
	//   revenue-by-sku   jobs=1 reused=0 evicted=4 repo=3
	//   revenue-by-store jobs=1 reused=1 evicted=0 repo=4
	//   units-by-store   jobs=1 reused=2 evicted=0 repo=4
}

// The workload the paper's introduction motivates: many analysts' queries
// repeat the same load-filter-project prefix over the same day of logs.
// ReStore materializes the shared prefix once; every later query starts
// from the filtered slice and bills far less simulated time.
func Example_weblogs() {
	const prefix = `
logs = load 'warehouse/access_log' as (ip, url, status:int, bytes:long, agent, referrer);
human = filter logs by not (agent == 'bot');
slim = foreach human generate url, status, bytes;
`
	queries := []struct{ name, src string }{
		{"errors-by-url", prefix + `
errs = filter slim by status >= 500;
g = group errs by url;
rep = foreach g generate group, COUNT(errs);
store rep into 'reports/errors_by_url';`},
		{"traffic-by-url", prefix + `
g = group slim by url;
rep = foreach g generate group, SUM(slim.bytes);
store rep into 'reports/traffic_by_url';`},
		{"status-histogram", prefix + `
g = group slim by status;
rep = foreach g generate group, COUNT(slim);
store rep into 'reports/status_histogram';`},
		{"heaviest-pages", prefix + `
g = group slim by url;
sized = foreach g generate group, MAX(slim.bytes) as peak;
ranked = order sized by peak desc;
top = limit ranked 3;
store top into 'reports/heaviest_pages';`},
	}

	sys := restore.New() // the Aggressive heuristic stores the shared prefix
	rng := rand.New(rand.NewSource(99))
	agents := []string{"firefox", "chrome", "safari", "bot"}
	lines := make([]string, 4000)
	for i := range lines {
		status := 200
		switch {
		case rng.Intn(20) == 0:
			status = 500 + rng.Intn(4)
		case rng.Intn(10) == 0:
			status = 404
		}
		lines[i] = fmt.Sprintf("10.0.%d.%d\t/page/%02d\t%d\t%d\t%s\treferrer",
			rng.Intn(256), rng.Intn(256), rng.Intn(40), status, rng.Intn(1<<16), agents[rng.Intn(len(agents))])
	}
	must(sys.LoadTSV("warehouse/access_log", "ip, url, status:int, bytes:long, agent, referrer", lines, 4))
	must(sys.SetDataScale("warehouse/access_log", 80<<30)) // a day of logs

	var res *restore.Result
	for _, q := range queries {
		var err error
		res, err = sys.Execute(q.src)
		must(err)
		fmt.Printf("%-16s jobs=%d simulated=%-6v reused=%d stored=%d\n",
			q.name, len(res.Jobs), res.SimulatedTime.Round(time.Second), len(res.Rewrites), res.Registered)
	}
	rows, err := sys.ReadOutputTSV(res, "reports/heaviest_pages")
	must(err)
	fmt.Println("heaviest pages:", strings.Join(rows, " | "))
	// Output:
	// errors-by-url    jobs=1 simulated=11m57s reused=0 stored=4
	// traffic-by-url   jobs=1 simulated=7m44s  reused=1 stored=1
	// status-histogram jobs=1 simulated=6m49s  reused=1 stored=1
	// heaviest-pages   jobs=3 simulated=3m43s  reused=2 stored=2
	// heaviest pages: /page/12	65364 | /page/17	65417 | /page/35	65421
}
