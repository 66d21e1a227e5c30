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

func benchMultiJoinOrder(b *testing.B, strat JoinOrderStrategy) {
	db := openStar4(b, 20000) // 20000×(25/500) = 1000 result rows
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		res, err := worstFirstStarQuery(db).JoinOrder(strat).Run()
		if err != nil {
			b.Fatal(err)
		}
		rows = res.Len()
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkMultiJoinLeftDeep(b *testing.B) { benchMultiJoinOrder(b, JoinOrderLeftDeep) }

func BenchmarkMultiJoinDP(b *testing.B) { benchMultiJoinOrder(b, JoinOrderAuto) }
