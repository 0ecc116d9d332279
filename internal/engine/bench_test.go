package engine

import (
	"fmt"
	"testing"

	"hammerhead/internal/types"
)

// BenchmarkRoundRequestServe measures serving a frontier sync request from
// the per-round index. Before the index, every request iterated and sorted
// the whole certificate store; with GC disabled over a long run that made
// round requests an O(store log store) DoS lever.
func BenchmarkRoundRequestServe(b *testing.B) {
	committee, err := types.NewEqualStakeCommittee(20)
	if err != nil {
		b.Fatal(err)
	}
	for _, storedRounds := range []types.Round{50, 400} {
		b.Run(fmt.Sprintf("storedRounds=%d", storedRounds), func(b *testing.B) {
			eng, _ := newTraceEngine(b, committee, func(c *Config) {
				c.GCDepth = uint64(storedRounds) * 2 // keep everything resident
				c.MaxSyncBatch = 64
			})
			feedCerts(eng, buildCertTrace(b, committee, storedRounds))
			req := &RoundRequest{FromRound: storedRounds - 4}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := &Output{}
				eng.onRoundRequest(1, req, out)
				if len(out.Unicasts) != 1 {
					b.Fatal("no response")
				}
			}
		})
	}
}
