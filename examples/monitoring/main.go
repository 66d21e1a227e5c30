// Performance monitoring: "Snodgrass has shown that the relational model
// provides a good basis for the development of performance monitoring
// tools" (§1). Events stream into a memory-resident relation; the T Tree
// primary index on the timestamp makes time-window queries range scans,
// and a tuple-pointer foreign key links each event to its process.
//
// The example then turns the monitoring lens on the engine itself: the
// per-query operator trace (EXPLAIN ANALYZE), the engine-wide metrics
// registry (db.Stats()), and the curl-able Prometheus endpoint
// (db.MetricsHandler()).
//
//	go run ./examples/monitoring
package main

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"

	mmdb "repro"
)

func main() {
	db, err := mmdb.Open(mmdb.Options{})
	if err != nil {
		log.Fatal(err)
	}

	procs, err := db.CreateTable("procs", []mmdb.Field{
		{Name: "pid", Type: mmdb.TypeInt},
		{Name: "command", Type: mmdb.TypeString},
	}, "pid", mmdb.TTree)
	if err != nil {
		log.Fatal(err)
	}
	events, err := db.CreateTable("events", []mmdb.Field{
		{Name: "ts", Type: mmdb.TypeInt}, // microseconds
		{Name: "kind", Type: mmdb.TypeString},
		{Name: "proc", Type: mmdb.TypeRef, ForeignKey: "procs"},
		{Name: "latency", Type: mmdb.TypeInt},
	}, "ts", mmdb.TTree)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := events.CreateIndex("by_kind", "kind", mmdb.ModLinearHash); err != nil {
		log.Fatal(err)
	}

	// Simulated monitoring stream.
	rng := rand.New(rand.NewSource(42))
	var procTuples []*mmdb.Tuple
	for pid, cmd := range map[int64]string{101: "dbserver", 102: "editor", 103: "compiler"} {
		tp, err := procs.Insert(mmdb.Int(pid), mmdb.Str(cmd))
		if err != nil {
			log.Fatal(err)
		}
		procTuples = append(procTuples, tp)
	}
	kinds := []string{"syscall", "pagefault", "lock-wait", "io"}
	ts := int64(0)
	tx := db.Begin()
	for i := 0; i < 5000; i++ {
		ts += rng.Int63n(100) + 1
		if err := tx.Insert(events,
			mmdb.Int(ts),
			mmdb.Str(kinds[rng.Intn(len(kinds))]),
			mmdb.Ref(procTuples[rng.Intn(len(procTuples))]),
			mmdb.Int(rng.Int63n(5000)),
		); err != nil {
			log.Fatal(err)
		}
		if i%500 == 499 { // commit in batches, as a collector would
			if _, err := tx.Commit(); err != nil {
				log.Fatal(err)
			}
			tx = db.Begin()
		}
	}
	if _, err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("events collected:", events.Cardinality())

	// Time-window query: a range scan on the primary T Tree.
	lo, hi := ts/4, ts/4+5000
	res, err := db.Query("events").
		Where("ts", mmdb.Ge, mmdb.Int(lo)).
		Where("ts", mmdb.Le, mmdb.Int(hi)).
		Join("procs", "proc", mmdb.Self).
		Select("events.ts", "events.kind", "procs.command", "events.latency").
		Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("window [%d, %d]: %d events\n", lo, hi, res.Len())
	fmt.Println("  plan:", res.Plan())

	// Per-kind stats over the window, aggregated by the client from the
	// tuple-pointer result (no data was copied to compute the window).
	type agg struct {
		n     int
		total int64
	}
	perKind := map[string]*agg{}
	for i := 0; i < res.Len(); i++ {
		row := res.Row(i)
		a := perKind[row[1].Str()]
		if a == nil {
			a = &agg{}
			perKind[row[1].Str()] = a
		}
		a.n++
		a.total += row[3].Int()
	}
	for _, k := range kinds {
		if a := perKind[k]; a != nil {
			fmt.Printf("  %-10s n=%-5d mean latency=%dus\n", k, a.n, a.total/int64(a.n))
		}
	}

	// Exact-match on kind uses the hash index.
	res, err = db.Query("events").Where("kind", mmdb.Eq, mmdb.Str("lock-wait")).Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lock-wait events: %d (plan: %s)\n", res.Len(), res.Plan())

	// Now monitor the monitor. EXPLAIN ANALYZE executes the query and
	// reports the operator tree: rows in/out, wall time, and the §3.1
	// validity counters (comparisons, moves, hash calls, nodes) per
	// operator.
	r, err := db.Exec("EXPLAIN ANALYZE SELECT events.kind, procs.command FROM events JOIN procs ON events.proc = procs.SELF WHERE latency < 50")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nEXPLAIN ANALYZE:")
	fmt.Println(indent(r.Plan()))

	// The engine-wide registry has been counting everything this program
	// did: queries by plan shape, rows scanned vs returned, index probes
	// per structure, transactions, log traffic.
	fmt.Println("\ndb.Stats():")
	fmt.Println(indent(db.Stats().String()))

	// The same registry is curl-able. db.MetricsHandler() serves
	// Prometheus text format (and JSON with ?format=json); mount it on
	// any mux. Here an httptest server stands in for a real listener:
	//
	//	http.Handle("/metrics", db.MetricsHandler())
	//	curl localhost:8080/metrics
	srv := httptest.NewServer(db.MetricsHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	fmt.Println("\ncurl " + srv.URL + " (first lines):")
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 8 && sc.Scan(); i++ {
		fmt.Println("  " + sc.Text())
	}
	io.Copy(io.Discard, resp.Body)

	// Live introspection rides the same pattern: db.DebugHandler() serves
	// /debug/queries (in-flight queries with phase and progress gauges)
	// and /debug/slow (the slow-query log — enable it with
	// Options.SlowQueryThreshold).
	dbg := httptest.NewServer(db.DebugHandler())
	defer dbg.Close()
	resp2, err := http.Get(dbg.URL + "/debug/queries")
	if err != nil {
		log.Fatal(err)
	}
	defer resp2.Body.Close()
	body, _ := io.ReadAll(resp2.Body)
	fmt.Println("\ncurl " + dbg.URL + "/debug/queries:")
	fmt.Println(indent(strings.TrimRight(string(body), "\n")))
}

// indent prefixes every line with two spaces.
func indent(s string) string {
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}
