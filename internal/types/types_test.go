package types

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestDigestString(t *testing.T) {
	d := HashBytes([]byte("hello"))
	if d.IsZero() {
		t.Fatal("hash of non-empty input must not be zero")
	}
	if got := len(d.Hex()); got != 64 {
		t.Fatalf("Hex() length = %d, want 64", got)
	}
	if got := len(d.String()); got != 8 {
		t.Fatalf("String() length = %d, want 8", got)
	}
}

func TestHashBytesLengthPrefixing(t *testing.T) {
	// ("ab","c") and ("a","bc") must hash differently: parts are
	// length-prefixed, not concatenated.
	d1 := HashBytes([]byte("ab"), []byte("c"))
	d2 := HashBytes([]byte("a"), []byte("bc"))
	if d1 == d2 {
		t.Fatal("length prefixing failed: distinct part splits collide")
	}
}

func TestHashBytesDeterministic(t *testing.T) {
	f := func(a, b []byte) bool {
		return HashBytes(a, b) == HashBytes(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRoundIsAnchorRound(t *testing.T) {
	cases := []struct {
		round Round
		want  bool
	}{
		{0, true}, {1, false}, {2, true}, {3, false}, {100, true}, {101, false},
	}
	for _, tc := range cases {
		if got := tc.round.IsAnchorRound(); got != tc.want {
			t.Errorf("Round(%d).IsAnchorRound() = %v, want %v", tc.round, got, tc.want)
		}
	}
}

func TestNewCommitteeValidation(t *testing.T) {
	tests := []struct {
		name    string
		auths   []Authority
		wantErr bool
	}{
		{"empty", nil, true},
		{"zero stake", []Authority{{ID: 0, Stake: 0}}, true},
		{"bad ids", []Authority{{ID: 1, Stake: 1}}, true},
		{"ok", []Authority{{ID: 0, Stake: 1}, {ID: 1, Stake: 2}}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewCommittee(tc.auths)
			if (err != nil) != tc.wantErr {
				t.Fatalf("NewCommittee() error = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestCommitteeThresholdsEqualStake(t *testing.T) {
	tests := []struct {
		n              int
		wantFaulty     Stake
		wantQuorum     Stake
		wantValidity   Stake
		wantTotalStake Stake
	}{
		{1, 0, 1, 1, 1},
		{4, 1, 3, 2, 4},
		{7, 2, 5, 3, 7},
		{10, 3, 7, 4, 10},
		{50, 16, 34, 17, 50},
		{100, 33, 67, 34, 100},
	}
	for _, tc := range tests {
		c, err := NewEqualStakeCommittee(tc.n)
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if got := c.MaxFaultyStake(); got != tc.wantFaulty {
			t.Errorf("n=%d MaxFaultyStake = %d, want %d", tc.n, got, tc.wantFaulty)
		}
		if got := c.QuorumThreshold(); got != tc.wantQuorum {
			t.Errorf("n=%d QuorumThreshold = %d, want %d", tc.n, got, tc.wantQuorum)
		}
		if got := c.ValidityThreshold(); got != tc.wantValidity {
			t.Errorf("n=%d ValidityThreshold = %d, want %d", tc.n, got, tc.wantValidity)
		}
		if got := c.TotalStake(); got != tc.wantTotalStake {
			t.Errorf("n=%d TotalStake = %d, want %d", tc.n, got, tc.wantTotalStake)
		}
	}
}

func TestCommitteeThresholdInvariants(t *testing.T) {
	// Quorum intersection: two quorums overlap in more than f stake, i.e.
	// 2*quorum - total > f. Checked for a range of weighted committees.
	f := func(seed uint32) bool {
		n := int(seed%30) + 1
		auths := make([]Authority, n)
		for i := range auths {
			auths[i] = Authority{ID: ValidatorID(i), Stake: Stake(seed%7) + Stake(i%5) + 1}
		}
		c, err := NewCommittee(auths)
		if err != nil {
			return false
		}
		q, total, faulty := c.QuorumThreshold(), c.TotalStake(), c.MaxFaultyStake()
		return 2*q > total+faulty && c.ValidityThreshold() > faulty
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStakeAccumulator(t *testing.T) {
	c, err := NewEqualStakeCommittee(4)
	if err != nil {
		t.Fatal(err)
	}
	acc := NewStakeAccumulator(c)
	if acc.ReachedValidity() {
		t.Fatal("empty accumulator must not reach validity")
	}
	acc.Add(0)
	acc.Add(0) // duplicate: must not double count
	if got := acc.Total(); got != 1 {
		t.Fatalf("Total = %d, want 1 (duplicates must not count)", got)
	}
	acc.Add(1)
	if !acc.ReachedValidity() {
		t.Fatal("2 of 4 equal-stake validators must reach validity (f+1=2)")
	}
	if acc.ReachedQuorum() {
		t.Fatal("2 of 4 must not reach quorum (2f+1=3)")
	}
	acc.Add(2)
	if !acc.ReachedQuorum() {
		t.Fatal("3 of 4 must reach quorum")
	}
	if got := acc.Count(); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
}

func TestStakeOfCountsDistinct(t *testing.T) {
	c, err := NewEqualStakeCommittee(5)
	if err != nil {
		t.Fatal(err)
	}
	got := c.StakeOf([]ValidatorID{0, 1, 1, 2, 2, 2})
	if got != 3 {
		t.Fatalf("StakeOf = %d, want 3", got)
	}
}

func TestAuthorityLookup(t *testing.T) {
	c, err := NewEqualStakeCommittee(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Authority(2); !ok {
		t.Fatal("authority 2 must exist")
	}
	if _, ok := c.Authority(3); ok {
		t.Fatal("authority 3 must not exist")
	}
	if got := c.Stake(99); got != 0 {
		t.Fatalf("Stake(unknown) = %d, want 0", got)
	}
}

func TestBatchEncodedSize(t *testing.T) {
	b := Batch{Transactions: []Transaction{
		{ID: 1, Payload: make([]byte, 100)},
		{ID: 2, Payload: make([]byte, 50)},
	}}
	want := 8 + (8 + 8 + 8 + 100) + (8 + 8 + 8 + 50)
	if got := b.EncodedSize(); got != want {
		t.Fatalf("EncodedSize = %d, want %d", got, want)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
}

// TestStakeAccumulatorMatchesMapModel drives the bitset accumulator and the
// map it replaced with the same stream of IDs — weighted stake, duplicates,
// IDs outside the committee — at committee sizes on both sides of the 64-bit
// word boundary; every total and threshold must agree after every Add.
func TestStakeAccumulatorMatchesMapModel(t *testing.T) {
	for _, n := range []int{1, 4, 50, 64, 65, 130} {
		rng := rand.New(rand.NewSource(int64(n))) //nolint:gosec // test determinism
		authorities := make([]Authority, n)
		for i := range authorities {
			authorities[i] = Authority{ID: ValidatorID(i), Stake: Stake(1 + rng.Intn(9))}
		}
		c, err := NewCommittee(authorities)
		if err != nil {
			t.Fatal(err)
		}
		acc := NewStakeAccumulator(c)
		for pass := 0; pass < 2; pass++ {
			seen := map[ValidatorID]struct{}{}
			var total Stake
			members := 0
			for i := 0; i < 4*n+8; i++ {
				id := ValidatorID(rng.Intn(n + n/2 + 2)) // a third fall outside the committee
				if i%11 == 10 {
					id = NoValidator
				}
				if _, dup := seen[id]; !dup {
					seen[id] = struct{}{}
					total += c.Stake(id)
					if int(id) < n {
						members++
					}
				}
				if got := acc.Add(id); got != total || acc.Total() != total {
					t.Fatalf("n=%d: after Add(%s) total = %d (Total %d), model says %d", n, id, got, acc.Total(), total)
				}
				if acc.Count() != members {
					t.Fatalf("n=%d: Count = %d, model holds %d committee members", n, acc.Count(), members)
				}
				if acc.ReachedQuorum() != (total >= c.QuorumThreshold()) || acc.ReachedValidity() != (total >= c.ValidityThreshold()) {
					t.Fatalf("n=%d: thresholds disagree with the model at total %d", n, total)
				}
			}
			acc.Reset()
			if acc.Total() != 0 || acc.Count() != 0 || acc.ReachedValidity() {
				t.Fatalf("n=%d: Reset left total %d, count %d", n, acc.Total(), acc.Count())
			}
		}
	}
}

func TestValidatorSet(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		s := NewValidatorSet(n)
		if len(s) != ValidatorSetWords(n) || !s.Empty() || s.Len() != 0 {
			t.Fatalf("n=%d: new set has %d words, %d members", n, len(s), s.Len())
		}
		var want []ValidatorID
		for id := 0; id < n; id += 1 + id/3 {
			s.Add(ValidatorID(id))
			s.Add(ValidatorID(id)) // idempotent
			want = append(want, ValidatorID(id))
		}
		if s.Len() != len(want) || s.Empty() {
			t.Fatalf("n=%d: Len = %d, want %d", n, s.Len(), len(want))
		}
		var got []ValidatorID
		for id := range s.All() {
			got = append(got, id)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: All = %v, want %v (ascending)", n, got, want)
		}
		if s.Has(ValidatorID(n+64)) || s.Has(NoValidator) {
			t.Fatalf("n=%d: Has beyond the capacity must be false", n)
		}
		// Removing the member just yielded is allowed mid-iteration.
		other := NewValidatorSet(n)
		other.Union(s)
		for id := range s.All() {
			if id%2 == 0 {
				s.Remove(id)
			}
		}
		for _, id := range want {
			if s.Has(id) != (id%2 == 1) || !other.Has(id) {
				t.Fatalf("n=%d: after removing the even members, Has(%s) = %v; the union copy has it: %v", n, id, s.Has(id), other.Has(id))
			}
		}
		other.Clear()
		if !other.Empty() {
			t.Fatalf("n=%d: Clear left members", n)
		}
	}
}

// TestRoundWindowMatchesMapModel slides a window the way the DAG and the
// committer do — fill near the top, sometimes a few rounds ahead, drop from
// the bottom, now and then past everything held — against a plain map.
func TestRoundWindowMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3)) //nolint:gosec // test determinism
	w := NewRoundWindow[*int](5)
	model := map[Round]*int{}
	floor, top := Round(5), Round(5)
	check := func(step int) {
		t.Helper()
		if w.Floor() != floor {
			t.Fatalf("step %d: Floor = %d, want %d", step, w.Floor(), floor)
		}
		for r := Round(0); r <= top+3; r++ {
			if got := w.At(r); got != model[r] {
				t.Fatalf("step %d: At(%d) = %v, model holds %v", step, r, got, model[r])
			}
		}
		if end := w.End(); end < floor || (end > floor && w.At(end-1) == nil) {
			t.Fatalf("step %d: End = %d is not one past the highest round set (floor %d)", step, end, floor)
		}
	}
	check(0)
	for step := 1; step <= 400; step++ {
		switch rng.Intn(4) {
		case 0: // prune, sometimes beyond the top
			floor += Round(rng.Intn(4))
			if rng.Intn(10) == 0 {
				floor = max(floor, top+Round(rng.Intn(3)))
			}
			w.DropBelow(floor)
			w.DropBelow(floor / 2) // moving back is a no-op
			for r := range model {
				if r < floor {
					delete(model, r)
				}
			}
		default: // set somewhere between the floor and a little above the top
			r := floor + Round(rng.Intn(int(top-min(top, floor))+4))
			v := new(int)
			w.Set(r, v)
			model[r] = v
			top = max(top, r)
		}
		check(step)
	}
}
