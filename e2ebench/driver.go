package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"flecc/internal/cache"
	"flecc/internal/wire"
	"flecc/internal/workload"
)

// maxInvalidatedRetries bounds the re-pulls after StartUse reports
// cache.ErrInvalidated, the protocol's "pull before use" signal. A strong
// buyer racing a weak browser over a replicated link is invalidated on
// about half of its re-pulls, so the bound is generous: starvation shows
// as retries and buy latency, and only a buy that never gets through
// fails.
const maxInvalidatedRetries = 64

// sampleEvery sets the fixed 1-in-N browse sample for the staleness and
// conflict-set probes.
const sampleEvery = 16

// sessionsPerChunk is how many sessions per client one generated chunk
// of the op stream holds.
const sessionsPerChunk = 16

type opKind uint8

const (
	opBrowse opKind = iota
	opBuy
)

// op is one user-visible operation: a browse, or a whole purchase
// (workload.OpUpgrade, OpBuy and OpDowngrade of one client).
type op struct {
	kind   opKind
	sess   *session
	flight int
	seats  int
}

// windows is the number of equal time windows a phase's latencies are
// kept in; a percentile is reported as the median of its value over
// windows (see windowedQuantile), so one stall moves one window only.
const windows = 16

// phaseStats is what a driver measures during one phase.
type phaseStats struct {
	// browse and buy hold the latencies of each window; start and winLen
	// place an op in its window by its end time.
	browse, buy [windows]hist
	done        [windows]int64 // completed ops per window
	start       time.Time
	winLen      time.Duration
	attempted   int64
	failed      int64
	retries     int64 // cache.ErrInvalidated re-pulls
	// Staleness probe: UnseenCommitted between a browse's pull and use.
	staleSamples, staleSum, freshSamples int64
	// Traced runs only.
	trace traceStats
	// firstErr keeps one failure for the report.
	firstErr error
}

// driver is one load-generating goroutine. It owns a fixed set of views
// and executes, in order, the seeded op stream of its clients.
type driver struct {
	id    int
	st    *stack
	w     spec
	seed  int64
	views []*session

	chunk   int64
	pending []op

	browses     int64 // for the 1-in-N sample
	seatsBought int64 // over the whole run, for the reservation check
	// limit, when positive, ends run after that many ops.
	limit int64
}

// assignViews gives each driver whole conflict groups when there are at
// least as many groups as drivers, and single views otherwise.
func assignViews(st *stack, n int) [][]*session {
	out := make([][]*session, n)
	for i, s := range st.sessions {
		d := i % n
		if st.w.Groups >= n {
			d = s.group % n
		}
		out[d] = append(out[d], s)
	}
	return out
}

// next returns the driver's next op, generating the op stream chunk by
// chunk from the run seed so the same seed always yields the same ops.
func (d *driver) next() (op, error) {
	for len(d.pending) == 0 {
		ops, err := workload.Generate(workload.Config{
			Seed:              d.seed*1_000_003 + int64(d.id)*7919 + d.chunk,
			Clients:           len(d.views),
			Sessions:          sessionsPerChunk,
			BrowsesPerSession: d.w.BrowsesPerSession,
			BuyFraction:       d.w.BuyFraction,
			FlightsFrom:       0,
			FlightsTo:         d.w.FlightsPerGroup - 1,
			MaxSeats:          maxSeats,
		})
		if err != nil {
			return op{}, err
		}
		d.chunk++
		for _, g := range ops {
			s := d.views[g.Client]
			switch g.Kind {
			case workload.OpBrowse:
				d.pending = append(d.pending, op{kind: opBrowse, sess: s, flight: s.flight + g.Flight})
			case workload.OpBuy:
				d.pending = append(d.pending, op{kind: opBuy, sess: s, flight: s.flight + g.Flight, seats: g.Seats})
			}
			// OpUpgrade and OpDowngrade belong to the purchase they
			// bracket; run() issues them around the buy in adaptive mode.
		}
	}
	o := d.pending[0]
	d.pending = d.pending[1:]
	return o, nil
}

// run executes ops back to back (a closed loop) until stop is set or the
// driver's op limit is reached.
func (d *driver) run(ps *phaseStats, stop *atomic.Bool) error {
	for n := int64(0); !stop.Load() && (d.limit == 0 || n < d.limit); n++ {
		o, err := d.next()
		if err != nil {
			return err
		}
		began := time.Now()
		var ot *opTrace
		if ps.trace.on {
			ot = d.st.t.beginOp(o.sess.name)
		}
		err = d.exec(ps, o)
		if ot != nil {
			d.st.t.endOp(ot)
		}
		end := time.Now()
		ps.attempted++
		if err != nil {
			ps.failed++
			if ps.firstErr == nil {
				ps.firstErr = err
			}
		} else {
			w := min(int(end.Sub(ps.start)/ps.winLen), windows-1)
			ps.done[w]++
			if o.kind == opBrowse {
				ps.browse[w].add(int64(end.Sub(began)))
			} else {
				ps.buy[w].add(int64(end.Sub(began)))
			}
		}
		if ot != nil {
			ps.trace.addOp(d.st, ot, int64(end.Sub(began)))
			if o.kind == opBrowse && d.browses%sampleEvery == 0 {
				ps.trace.probeRegistry(d.st, o.sess.name)
			}
		}
	}
	return nil
}

func (d *driver) exec(ps *phaseStats, o op) error {
	if o.kind == opBrowse {
		return d.browse(ps, o)
	}
	return d.buy(ps, o)
}

// pullAndUse pulls and opens a use window, re-pulling a bounded number of
// times when the directory invalidated the image in between.
func (d *driver) pullAndUse(ps *phaseStats, s *session, probe bool) error {
	for attempt := 0; ; attempt++ {
		if err := s.pull(); err != nil {
			return fmt.Errorf("%s pull: %w", s.name, err)
		}
		if probe {
			n := int64(d.st.dm.UnseenCommitted(s.name))
			ps.staleSamples++
			ps.staleSum += n
			if n == 0 {
				ps.freshSamples++
			}
			probe = false
		}
		err := s.startUse()
		if err == nil {
			return nil
		}
		if !errors.Is(err, cache.ErrInvalidated) || attempt == maxInvalidatedRetries {
			return fmt.Errorf("%s start use: %w", s.name, err)
		}
		ps.retries++
	}
}

// browse is PullImage + StartUse + Browse + EndUse, browsing the origin
// of the op's flight. That flight must be listed: it is in the replica
// and capacity is never reached.
func (d *driver) browse(ps *phaseStats, o op) error {
	d.browses++
	s := o.sess
	if err := d.pullAndUse(ps, s, d.browses%sampleEvery == 0); err != nil {
		return err
	}
	found := false
	if f, ok := s.ARS.Flight(o.flight); ok {
		for _, b := range s.ARS.Browse(f.Origin, "") {
			found = found || b.Number == o.flight
		}
	}
	s.endUse()
	if !found {
		return fmt.Errorf("%s: flight %d missing from its replica's browse", s.name, o.flight)
	}
	return nil
}

// buy is the whole purchase: in adaptive workloads SetMode(strong), then
// pull/use/ConfirmTickets, PushImage, SetMode(weak); otherwise the same
// without the mode switches.
func (d *driver) buy(ps *phaseStats, o op) (err error) {
	s := o.sess
	if d.w.Adaptive {
		if err := s.setMode(wire.Strong); err != nil {
			return fmt.Errorf("%s set strong: %w", s.name, err)
		}
		defer func() {
			if merr := s.setMode(wire.Weak); merr != nil && err == nil {
				err = fmt.Errorf("%s set weak: %w", s.name, merr)
			}
		}()
	}
	if err := d.pullAndUse(ps, s, false); err != nil {
		return err
	}
	cerr := s.ARS.ConfirmTickets(o.seats, o.flight)
	s.endUse()
	if cerr != nil {
		return fmt.Errorf("%s confirm: %w", s.name, cerr)
	}
	if err := s.push(); err != nil {
		return fmt.Errorf("%s push: %w", s.name, err)
	}
	d.seatsBought += int64(o.seats)
	return nil
}
