package simnet

import (
	"fmt"
	"math/rand"
	"time"
)

// LatencyModel produces one-way message delays between validators.
// Implementations must be deterministic given the rng.
type LatencyModel interface {
	// Delay returns the one-way latency for a message of size bytes from
	// validator from to validator to.
	Delay(from, to int, sizeBytes int, rng *rand.Rand) time.Duration
}

// Uniform is a flat network: every link has the same base one-way delay
// with +-Jitter fractional noise. Useful for unit tests and ablations.
type Uniform struct {
	Base   time.Duration
	Jitter float64 // fraction of Base, e.g. 0.1
}

var _ LatencyModel = Uniform{}

// Delay implements LatencyModel.
func (u Uniform) Delay(_, _ int, _ int, rng *rand.Rand) time.Duration {
	d := float64(u.Base)
	if u.Jitter > 0 {
		d *= 1 + u.Jitter*(2*rng.Float64()-1)
	}
	return time.Duration(d)
}

// RegionNames lists the 13 AWS regions of the paper's testbed, in the order
// used by the RTT matrix below.
var RegionNames = []string{
	"us-east-1", "us-west-2", "ca-central-1", "eu-central-1", "eu-west-1",
	"eu-west-2", "eu-west-3", "eu-north-1", "ap-south-1", "ap-southeast-1",
	"ap-southeast-2", "ap-northeast-1", "ap-northeast-2",
}

// regionRTTMillis is a symmetric inter-region round-trip-time matrix in
// milliseconds, assembled from public inter-region measurements. It
// substitutes for the paper's live AWS links: the experiments
// depend on the RTT *distribution* (a fast transatlantic core plus slow
// Asia-Pacific tails), not on exact values. Only the upper triangle is
// specified; the lower is mirrored, and the diagonal is intra-region.
var regionRTTMillis = [13][13]float64{
	//        use1 usw2  cac1  euc1  euw1  euw2  euw3  eun1  aps1  apse1 apse2 apne1 apne2
	/*use1*/ {1, 70, 15, 90, 75, 78, 82, 110, 190, 220, 200, 160, 180},
	/*usw2*/ {0, 1, 60, 150, 130, 140, 145, 170, 220, 170, 140, 100, 120},
	/*cac1*/ {0, 0, 1, 95, 80, 85, 90, 110, 200, 215, 210, 155, 175},
	/*euc1*/ {0, 0, 0, 1, 25, 15, 10, 25, 110, 160, 290, 230, 240},
	/*euw1*/ {0, 0, 0, 0, 1, 10, 18, 35, 125, 180, 280, 220, 230},
	/*euw2*/ {0, 0, 0, 0, 0, 1, 8, 28, 110, 170, 270, 215, 225},
	/*euw3*/ {0, 0, 0, 0, 0, 0, 1, 30, 105, 160, 280, 220, 235},
	/*eun1*/ {0, 0, 0, 0, 0, 0, 0, 1, 130, 180, 300, 250, 260},
	/*aps1*/ {0, 0, 0, 0, 0, 0, 0, 0, 1, 60, 150, 120, 130},
	/*apse1*/ {0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 95, 70, 75},
	/*apse2*/ {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 105, 135},
	/*apne1*/ {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 35},
	/*apne2*/ {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1},
}

// Geo models the paper's 13-region AWS deployment: one-way delay is half
// the inter-region RTT with fractional jitter, plus a serialization delay
// of size/Bandwidth (the paper's machines have 10 Gbps NICs).
type Geo struct {
	// RegionOf maps a validator index to a region index (0..12).
	RegionOf []int
	// Jitter is fractional noise on the propagation delay (e.g. 0.1).
	Jitter float64
	// BandwidthBytesPerSec is the per-message serialization rate; zero
	// disables the bandwidth term.
	BandwidthBytesPerSec float64
}

var _ LatencyModel = Geo{}

// NewGeo spreads n validators across the 13 regions round-robin ("as
// equally as possible", §5) with 10 Gbps links and 10% jitter.
func NewGeo(n int) Geo {
	regions := make([]int, n)
	for i := range regions {
		regions[i] = i % len(RegionNames)
	}
	return Geo{
		RegionOf:             regions,
		Jitter:               0.10,
		BandwidthBytesPerSec: 10e9 / 8,
	}
}

// RegionName returns the region label of a validator.
func (g Geo) RegionName(validator int) string {
	return RegionNames[g.RegionOf[validator]]
}

// RTT returns the modeled round-trip time between two validators.
func (g Geo) RTT(from, to int) time.Duration {
	a, b := g.RegionOf[from], g.RegionOf[to]
	if a > b {
		a, b = b, a
	}
	return time.Duration(regionRTTMillis[a][b] * float64(time.Millisecond))
}

// Delay implements LatencyModel.
func (g Geo) Delay(from, to int, sizeBytes int, rng *rand.Rand) time.Duration {
	if from >= len(g.RegionOf) || to >= len(g.RegionOf) {
		panic(fmt.Sprintf("simnet: validator %d/%d outside region map of %d", from, to, len(g.RegionOf)))
	}
	oneWay := float64(g.RTT(from, to)) / 2
	if g.Jitter > 0 {
		oneWay *= 1 + g.Jitter*(2*rng.Float64()-1)
	}
	if g.BandwidthBytesPerSec > 0 {
		oneWay += float64(sizeBytes) / g.BandwidthBytesPerSec * float64(time.Second)
	}
	return time.Duration(oneWay)
}
