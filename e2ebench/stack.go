package main

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"flecc/internal/airline"
	"flecc/internal/cache"
	"flecc/internal/directory"
	"flecc/internal/metrics"
	"flecc/internal/property"
	"flecc/internal/transport"
	"flecc/internal/vclock"
	"flecc/internal/wire"
)

// dmName is the directory manager's node name, as fleccd names it.
const dmName = "db"

// tcpTimeout bounds server-initiated calls and dial handshakes, as in
// fleccd.
const tcpTimeout = 30 * time.Second

// haLease is fleccd's default -ha-lease.
const haLease = 2 * time.Second

// typeCounter counts messages by wire type with one atomic add each, so
// the untraced runs can report messages per op at no measurable cost.
type typeCounter struct{ n [32]atomic.Int64 }

func (c *typeCounter) OnMessage(from, to string, m *wire.Message) { c.n[m.Type&31].Add(1) }

func (c *typeCounter) snapshot() (out [32]int64) {
	for i := range c.n {
		out[i] = c.n[i].Load()
	}
	return out
}

// stack is one deployment of the system under test: the primary flight
// database behind a directory manager, optionally a hot standby, and the
// travel-agent views.
type stack struct {
	w        spec
	t        *tracer
	db       *airline.ReservationSystem
	dm       *directory.Manager
	sdb      *airline.ReservationSystem // standby's database
	standby  *directory.Manager
	repl     *directory.Replicator
	sessions []*session
	msgs     typeCounter
	// msgStats is the program's own message tally, attached for traced
	// runs only (it allocates per message).
	msgStats *metrics.MessageStats
	wire     []func() transport.WireStatsSnapshot
	closers  []func()
}

// retryPolicy is fleccd's default retry policy (fault seed 1).
func retryPolicy() transport.RetryPolicy {
	return transport.RetryPolicy{Jitter: 0.2, Rand: transport.NewRand(1)}
}

// newStack seeds the database, starts the directory manager (and the
// standby), and registers and initializes every view. The directory
// manager runs exactly as fleccd ships by default: SeatResolver, default
// fan-out, serial lanes, no compaction, fleccd's retry policy.
func newStack(w spec, traced bool) (s *stack, err error) {
	first := make([]int, w.Groups)
	for g := range first {
		first[g] = firstFlight + g*w.FlightsPerGroup
	}
	s = &stack{w: w, t: newTracer(first)}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if traced {
		s.msgStats = metrics.NewMessageStats(false)
	}
	s.db = airline.NewReservationSystem()
	airline.SeedFlights(s.db, firstFlight, dbFlights, seatCapacity)
	clock := vclock.NewReal()
	opts := directory.Options{Resolver: airline.SeatResolver, Retry: retryPolicy()}

	var dmNet, cmNet *tracedNet
	switch w.Net {
	case netInproc:
		in := transport.NewInproc()
		s.observe(in)
		dmNet = &tracedNet{inner: in, t: s.t, dm: dmName, role: roleDM}
		cmNet = dmNet
	case netTCP:
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		sn := transport.NewServerNetwork(ln, tcpTimeout)
		s.observe(sn)
		s.wire = append(s.wire, sn.WireStats)
		dmNet = &tracedNet{inner: sn, t: s.t, dm: dmName, role: roleDM}
		cmNet = &tracedNet{inner: transport.NewDialNetwork(ln.Addr().String(), tcpTimeout), t: s.t, dm: dmName, role: roleDM}
		s.closers = append(s.closers, func() { ln.Close() })
	default:
		return nil, fmt.Errorf("unknown net %q", w.Net)
	}

	s.dm, err = directory.New(dmName, s.t.wrapCodec(s.db, ""), clock, dmNet, opts)
	if err != nil {
		return nil, fmt.Errorf("directory: %w", err)
	}
	s.closers = append(s.closers, func() { s.dm.Close() })
	if w.Standby {
		if err := s.startStandby(clock); err != nil {
			return nil, err
		}
	}

	perGroup := w.Views / w.Groups
	for i := 0; i < w.Views; i++ {
		g := i / perGroup
		name := fmt.Sprintf("agent-%d", i)
		from := firstFlight + g*w.FlightsPerGroup
		s.t.addView(name, g)
		ars := airline.NewReservationSystem()
		cm, err := cache.New(cache.Config{
			Name:            name,
			Directory:       dmName,
			Net:             cmNet,
			View:            s.t.wrapCodec(ars, name),
			Props:           property.NewSet(property.New(airline.PropFlights, property.DiscreteRange(from, from+w.FlightsPerGroup-1))),
			Mode:            wire.Weak,
			ValidityTrigger: w.Validity,
			Clock:           clock,
		})
		if err != nil {
			return nil, fmt.Errorf("register %s: %w", name, err)
		}
		sess := &session{TravelAgent: &airline.TravelAgent{ARS: ars, CM: cm}, name: name, group: g, flight: from, t: s.t}
		s.sessions = append(s.sessions, sess)
		if err := cm.InitImage(); err != nil {
			return nil, fmt.Errorf("init %s: %w", name, err)
		}
	}
	s.wire = append(s.wire, cmNet.wire...)
	return s, nil
}

// startStandby starts a standby directory manager on its own loopback
// listener and streams replication to it the way fleccd -replicate-to
// does: the default (asynchronous) sender, fleccd's lease, fencing and
// retry settings, over a dialed TCP link, and the replicator's heartbeat
// every quarter lease, as fleccd's HA ticker sends it.
func (s *stack) startStandby(clock vclock.Clock) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("standby listen: %w", err)
	}
	s.closers = append(s.closers, func() { ln.Close() })
	sn := transport.NewServerNetwork(ln, tcpTimeout)
	s.observe(sn)
	s.wire = append(s.wire, sn.WireStats)
	s.sdb = airline.NewReservationSystem()
	airline.SeedFlights(s.sdb, firstFlight, dbFlights, seatCapacity)
	snet := &tracedNet{inner: sn, t: s.t, dm: dmName, role: roleStandby}
	s.standby, err = directory.New(dmName, s.sdb, clock, snet, directory.Options{
		Resolver: airline.SeatResolver, Retry: retryPolicy(), Standby: true,
	})
	if err != nil {
		return fmt.Errorf("standby: %w", err)
	}
	s.closers = append(s.closers, func() { s.standby.Close() })

	link, err := transport.NewDialNetwork(ln.Addr().String(), tcpTimeout).Attach(dmName+"!repl", refuseCallback)
	if err != nil {
		return fmt.Errorf("replication link: %w", err)
	}
	s.closers = append(s.closers, func() { link.Close() })
	if c, ok := link.(*transport.Client); ok {
		s.wire = append(s.wire, c.WireStats)
	}
	s.repl, err = s.dm.StartReplication(directory.ReplConfig{
		Lease:        vclock.Duration(haLease / time.Millisecond),
		FenceOnLapse: true,
		Retry:        retryPolicy(),
	}, directory.ReplTarget{Name: dmName, Ep: s.t.wrapEndpoint(link, roleRepl)})
	if err != nil {
		return fmt.Errorf("start replication: %w", err)
	}
	s.closers = append(s.closers, s.repl.Close)

	// The heartbeat also ends a barrier stalled by a refused batch: the
	// sender rewinds its sent version but not its sent generation, so it
	// sees nothing to ship until the next commit or heartbeat.
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(haLease / 4)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.repl.Heartbeat()
			}
		}
	}()
	s.closers = append(s.closers, func() { close(stop); <-done })
	return nil
}

// refuseCallback answers server-initiated calls on the replication link,
// which carries none.
func refuseCallback(req *wire.Message) *wire.Message {
	return &wire.Message{Type: wire.TErr, Err: "replication link carries no server-initiated calls"}
}

func (s *stack) observe(n transport.ObservableNetwork) {
	n.AddObserver(&s.msgs)
	if s.msgStats != nil {
		n.AddObserver(s.msgStats)
	}
}

// close tears the deployment down in reverse start order and waits for
// the benchmark's own ship-timing goroutines.
func (s *stack) close() {
	for _, sess := range s.sessions {
		_ = sess.CM.KillImage() // teardown: the run's result is already decided
	}
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
	s.t.shipWG.Wait()
}

func (s *stack) wireStats() (out transport.WireStatsSnapshot) {
	for _, f := range s.wire {
		w := f()
		out.Frames += w.Frames
		out.Flushes += w.Flushes
		out.Bytes += w.Bytes
	}
	return out
}

func (s *stack) invalidations() int64 {
	var n int64
	for _, sess := range s.sessions {
		n += int64(sess.CM.Invalidations())
	}
	return n
}
