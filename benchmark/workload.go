package main

import (
	"fmt"
	"math"
)

// Fleet-model constants shared by every workload (§VII-A of the paper).
const (
	// services is d, the QoS services each device consumes.
	services = 2
	// tau is the density threshold τ separating isolated from massive.
	tau = 3
	// faultTicks is how long a fault keeps its group shifted: the onset
	// window flags the group, the recovery window faultTicks later flags
	// it again.
	faultTicks = 3
	// shiftMin and shiftMax bound the per-axis shift of a fault, above
	// the 0.05 jump the default threshold detector flags.
	shiftMin, shiftMax = 0.06, 0.1
	// warmupTicks are observed after the training snapshot and before
	// the timer starts; they belong to set-up.
	warmupTicks = 10
	// outageStart is the phase, within each outage period, of the first
	// tick of a block outage.
	outageStart = 5
	// outageCooldown is how many ticks an outage block stays out of the
	// event draw after its outage: the health policy quarantines it on
	// its third lost tick and re-admits it after two clean reports.
	outageCooldown = 4
)

// workload is one fleet, fault process and ingest path.
type workload struct {
	name string
	// n devices in clusters of cluster contiguous ids; r is the
	// consistency impact radius, ≈ 0.03·√(1000/n) by the repo's
	// dimensioning rule.
	n       int
	cluster int
	r       float64
	// lambdaGW and lambdaDSLAM are the Poisson rates of single-gateway
	// and whole-cluster faults per tick.
	lambdaGW, lambdaDSLAM float64
	// strict feeds Observe (the gateway's -strict) instead of
	// ObservePartial.
	strict bool
	// loss is the share of reports lost (NaN on the wire) per tick;
	// every outageEvery ticks one cluster loses outageTicks reports in
	// a row.
	loss                     float64
	outageEvery, outageTicks int
	// path is how abnormal windows are decided.
	path decisionPath
	// ticks is the number of timed ticks of a measured run. It is fixed,
	// so both sides of a comparison measure the same stretch of the
	// stream; it leaves at least ten ticks beyond tick_p90_ms.
	ticks int
}

// decisionPath is the Monitor's deployment model for a workload.
type decisionPath int

const (
	// centralized characterizes in process (core.New + CharacterizeAll).
	centralized decisionPath = iota
	// distributed keeps an in-process directory (WithDistributed).
	distributed
	// networked decides over loopback TCP shards (WithDirectory), with
	// WithMetrics on.
	networked
)

func (p decisionPath) String() string {
	switch p {
	case distributed:
		return "distributed"
	case networked:
		return "networked"
	default:
		return "centralized"
	}
}

// shardCount is the number of directory shards a networked workload
// dials: one connection per core of the 2-core reference machine.
const shardCount = 2

// scrapeEvery is the tick period of the networked workload's metrics
// scrape, done outside the timer.
const scrapeEvery = 50

// workloads is the benchmark's workload table; why each exists is in
// the package documentation and BENCHMARK.json.
var workloads = []workload{
	{
		name: "steady-1m",
		n:    1_000_000, cluster: 500, r: 0.001,
		lambdaGW: 20, lambdaDSLAM: 0.2,
		path:  centralized,
		ticks: 200,
	},
	{
		name: "storm-200k",
		n:    200_000, cluster: 500, r: 0.002,
		lambdaGW: 20, lambdaDSLAM: 3,
		strict: true,
		path:   centralized,
		ticks:  100,
	},
	{
		name: "lossy-dist-1m",
		n:    1_000_000, cluster: 100, r: 0.001,
		lambdaGW: 20, lambdaDSLAM: 1,
		loss: 0.01, outageEvery: 25, outageTicks: 4,
		path:  distributed,
		ticks: 200,
	},
	{
		name: "networked-100k",
		n:    100_000, cluster: 100, r: 0.003,
		lambdaGW: 10, lambdaDSLAM: 1,
		path:  networked,
		ticks: 150,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := ""
	for _, w := range workloads {
		names += " " + w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have%s, all)", name, names)
}

// scaled shrinks a workload's fleet by factor f for smoke tests: n
// scales by f, cluster size and fault rates by √f (so events stay
// whole clusters and still occur in a few ticks), the loss rate by 1/√f
// (so lost reports still meet faults), and r follows the dimensioning
// rule at the new n.
func (w workload) scaled(f float64) workload {
	s := math.Sqrt(f)
	w.n = int(float64(w.n) * f)
	w.loss = min(0.1, w.loss/s)
	w.cluster = max(10, int(float64(w.cluster)*s))
	w.r = 0.03 * math.Sqrt(1000/float64(w.n))
	w.lambdaGW = max(1, w.lambdaGW*s)
	w.lambdaDSLAM = max(0.5, w.lambdaDSLAM*s)
	return w
}
