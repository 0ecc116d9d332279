package engine

import (
	"fmt"
	"testing"

	"hammerhead/internal/crypto"
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

// BenchmarkVerifyCertificate measures checking one quorum certificate's
// votes (Ed25519): with an empty KnownSigs table every vote is verified;
// with the origin's header signature and the validator's own vote known, two
// fewer are. Votes past the quorum are never verified either way.
func BenchmarkVerifyCertificate(b *testing.B) {
	for _, n := range []int{4, 50} {
		committee, err := types.NewEqualStakeCommittee(n)
		if err != nil {
			b.Fatal(err)
		}
		keys := make([]crypto.KeyPair, n)
		pubs := make([]crypto.PublicKey, n)
		for i := range keys {
			if keys[i], err = crypto.NewKeyPair(crypto.Ed25519{}, [32]byte{5}, uint32(i)); err != nil {
				b.Fatal(err)
			}
			pubs[i] = keys[i].Public
		}
		// Validator 1's header, voted by a quorum that includes validator 0.
		h := Header{Round: 1, Source: 1}
		d := h.Digest()
		cert := &Certificate{Header: h}
		acc := types.NewStakeAccumulator(committee)
		for id := types.ValidatorID(0); !acc.ReachedQuorum(); id++ {
			sig, err := keys[id].Sign(d[:])
			if err != nil {
				b.Fatal(err)
			}
			cert.Votes = append(cert.Votes, VoteSig{Voter: id, Signature: sig})
			acc.Add(id)
		}
		for _, table := range []string{"empty", "origin+own known"} {
			known := newKnownSigs(n)
			if table != "empty" {
				known.add(1, d, cert.Votes[1].Signature) // the header signature
				known.add(0, d, cert.Votes[0].Signature) // the vote validator 0 cast
			}
			b.Run(fmt.Sprintf("n=%d/%s", n, table), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c := &Certificate{Header: cert.Header, Votes: cert.Votes}
					if _, _, ok := verifyQuorumVotes(crypto.Ed25519{}, committee, pubs, known, c); !ok {
						b.Fatal("certificate refused")
					}
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/cert")
			})
		}
	}
}
