package mmdb

import "testing"

// The multi-join planner's benchmark pair: the same worst-first star
// query under the naive as-written left-deep order and the DP order.
// Both report the joined row count via b.ReportMetric; the workload is
// deterministic, so the two counts must agree.

func worstFirstStarQuery(db *Database) *Query {
	return db.Query("dima").
		Join("fact", "id", "da").
		Join("dimb", "fact.db_", "id").
		Join("dimc", "fact.dc", "id")
}

// benchMultiJoinOrder runs the query in the forced order, or in the
// planner's when order is empty.
func benchMultiJoinOrder(b *testing.B, order ...string) {
	db := openStar4(b, 20000) // 20000×(25/500) = 1000 result rows
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		q := worstFirstStarQuery(db)
		if len(order) > 0 {
			q.ForceJoinOrder(order...)
		}
		res, err := q.Run()
		if err != nil {
			b.Fatal(err)
		}
		rows = res.Len()
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkMultiJoinLeftDeep(b *testing.B) {
	benchMultiJoinOrder(b, "dima", "fact", "dimb", "dimc")
}

func BenchmarkMultiJoinDP(b *testing.B) { benchMultiJoinOrder(b) }
