package main

// netKind is the transport a workload runs the directory manager on.
type netKind string

const (
	netInproc netKind = "inproc"
	netTCP    netKind = "tcp"
)

// spec is one named workload, a traffic mix. Views are state, not load: load
// always comes from the same number of driver goroutines.
type spec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Net is the transport between the views and the directory manager.
	Net netKind `json:"net"`
	// Standby adds a hot-standby directory manager fed by the primary's
	// default asynchronous replication sender over loopback TCP.
	Standby bool `json:"standby"`
	// Views registered, in Groups disjoint conflict groups; the views of
	// a group share FlightsPerGroup flights.
	Views           int `json:"views"`
	Groups          int `json:"groups"`
	FlightsPerGroup int `json:"flights_per_group"`
	// Adaptive views buy in strong mode (SetMode around the purchase);
	// otherwise every view stays weak.
	Adaptive bool `json:"adaptive"`
	// BuyFraction is the share of sessions that end in a purchase.
	BuyFraction float64 `json:"buy_fraction"`
	// BrowsesPerSession is the mean browse run before a possible buy.
	BrowsesPerSession int `json:"browses_per_session"`
	// Validity is every view's validity trigger ("" for none).
	Validity string `json:"validity_trigger"`
	// WarmupOps is the untimed ops each driver runs before measuring
	// (about half a second on the box the benchmark was tuned on).
	WarmupOps int `json:"warmup_ops_per_driver"`
}

// drivers is the number of load-generating goroutines (the core count of
// the box the benchmark was tuned on; fixed so runs compare across boxes).
// Every driver runs a closed loop: it sends its next op when the last one
// is done.
const drivers = 2

// Database and purchase shape shared by every workload.
const (
	firstFlight = 100
	dbFlights   = 1000
	// seatCapacity is far above what any run can sell, so no flight sells
	// out and every buy changes data.
	seatCapacity = 1 << 30
	maxSeats     = 2
)

var workloads = []spec{
	{
		Name:              "browse-weak",
		Why:               "64 weak views in 16 groups, 5% buy, Inproc: CM pull/apply, conflict query, delta extract; commits, wire and replication near zero",
		Net:               netInproc,
		Views:             64,
		Groups:            16,
		FlightsPerGroup:   5,
		BuyFraction:       0.05,
		BrowsesPerSession: 3,
		Validity:          "staleness < 3",
		WarmupOps:         40000,
	},
	{
		Name:              "buy-strong",
		Why:               "16 views in 2 groups, every session buys in strong mode, Inproc: invalidation fan-out, commit, codec merge and mode switches",
		Net:               netInproc,
		Views:             16,
		Groups:            2,
		FlightsPerGroup:   5,
		Adaptive:          true,
		BuyFraction:       1,
		BrowsesPerSession: 3,
		WarmupOps:         10000,
	},
	{
		Name:              "mix-tcp",
		Why:               "2 groups of 2 views sharing 5 flights over loopback TCP, one connection per view, 20% buy: wire codec, write queue, frame reader, syscalls",
		Net:               netTCP,
		Views:             4,
		Groups:            2,
		FlightsPerGroup:   5,
		Adaptive:          true,
		BuyFraction:       0.2,
		BrowsesPerSession: 3,
		Validity:          "staleness < 3",
		WarmupOps:         5000,
	},
	{
		Name:              "mix-tcp-ha",
		Why:               "mix-tcp plus a hot standby fed by the default async sender over TCP: the replication barrier on every pull and push",
		Net:               netTCP,
		Standby:           true,
		Views:             4,
		Groups:            2,
		FlightsPerGroup:   5,
		Adaptive:          true,
		BuyFraction:       0.2,
		BrowsesPerSession: 3,
		Validity:          "staleness < 3",
		WarmupOps:         600,
	},
}

// mixTCPShared is mix-tcp with both drivers in one conflict group: two
// views on their own connections, each driven by its own goroutine. It is
// not one of the benchmark's workloads because its checks fail: two strong
// pulls served concurrently can both be granted a valid copy (each pull's
// conflict query runs before the other view is marked active), the two
// purchases are then made on the same snapshot, and SeatResolver keeps only
// the larger seat count. Run it by name to reproduce that.
var mixTCPShared = spec{
	Name:              "mix-tcp-shared",
	Why:               "mix-tcp with both drivers in one group of 2 views: concurrent strong pulls in one conflict group",
	Net:               netTCP,
	Views:             2,
	Groups:            1,
	FlightsPerGroup:   5,
	Adaptive:          true,
	BuyFraction:       0.2,
	BrowsesPerSession: 3,
	Validity:          "staleness < 3",
	WarmupOps:         5000,
}

func findWorkload(name string) (spec, bool) {
	for _, w := range append(workloads, mixTCPShared) {
		if w.Name == name {
			return w, true
		}
	}
	return spec{}, false
}
