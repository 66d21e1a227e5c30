package mmdb

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkDurableLoad loads 250k rows of eight Int columns in 1,000-row
// transactions into a fresh table, once in memory and once durable beside
// a 50 ms log device, as the benchmark's oltp_point set-up does. The
// durable time over the in-memory one is what logging costs a load; Close,
// which drains what the device has not folded yet, is not timed.
func BenchmarkDurableLoad(b *testing.B) {
	const rows, batch, cols = 250_000, 1000, 8
	fields := make([]Field, cols)
	for c := range fields {
		fields[c] = Field{Name: fmt.Sprintf("c%d", c), Type: TypeInt}
	}
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "durable"
		}
		b.Run(name, func(b *testing.B) {
			row := make([]Value, cols)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var opts Options
				if durable {
					opts = Options{Dir: b.TempDir(), DeviceInterval: 50 * time.Millisecond}
				}
				db, err := Open(opts)
				if err != nil {
					b.Fatal(err)
				}
				tbl, err := db.CreateTable("fact", fields, "c0", TTree)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for lo := 0; lo < rows; lo += batch {
					tx := db.Begin()
					for r := lo; r < lo+batch; r++ {
						for c := range row {
							row[c] = Int(int64(r*cols + c))
						}
						if err := tx.Insert(tbl, row...); err != nil {
							b.Fatal(err)
						}
					}
					if _, err := tx.Commit(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
