package main

import (
	"fmt"
	"time"
)

// syncWait bounds how long the final check waits for the standby to
// acknowledge everything.
const syncWait = 10 * time.Second

// check quiesces the deployment (a final push and pull on every view, and
// on an HA stack the standby catching up) and verifies the outcome:
//   - no flight is oversold;
//   - the seats reserved on the primary equal the seats of successful buys;
//   - every view's replica equals the primary on its flights;
//   - with a standby: its database equals the primary's, and it lags by
//     nothing and no barrier was released degraded.
//
// It returns the problems found and the replication lag at the end.
func (s *stack) check(seatsBought int64) (problems []string, lagEnd int64) {
	fail := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	for _, sess := range s.sessions {
		if err := sess.CM.PushImage(); err != nil {
			fail("%s final push: %v", sess.name, err)
		}
	}
	for _, sess := range s.sessions {
		if err := sess.CM.PullImage(); err != nil {
			fail("%s final pull: %v", sess.name, err)
		}
	}

	var reserved int64
	for _, f := range s.db.Flights() {
		if f.Reserved > f.Capacity {
			fail("flight %d oversold: %d of %d seats", f.Number, f.Reserved, f.Capacity)
		}
		reserved += int64(f.Reserved)
	}
	if reserved != seatsBought {
		fail("primary holds %d reserved seats, successful buys took %d", reserved, seatsBought)
	}
	for _, sess := range s.sessions {
		for n := sess.flight; n < sess.flight+s.w.FlightsPerGroup; n++ {
			want, _ := s.db.Flight(n)
			if got, ok := sess.ARS.Flight(n); !ok || got != want {
				fail("%s replica of flight %d = %+v, primary has %+v", sess.name, n, got, want)
			}
		}
	}

	if s.standby == nil {
		return problems, 0
	}
	deadline := time.Now().Add(syncWait)
	for s.dm.ReplLag() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	lagEnd = int64(s.dm.ReplLag())
	if lagEnd != 0 {
		fail("standby still %d versions behind after %s", lagEnd, syncWait)
	}
	if d := s.repl.DegradedBarriers(); d != 0 {
		fail("%d replication barriers released degraded", d)
	}
	primary, standby := s.db.Flights(), s.sdb.Flights()
	if len(primary) != len(standby) {
		fail("standby holds %d flights, primary %d", len(standby), len(primary))
		return problems, lagEnd
	}
	for i := range primary {
		if primary[i] != standby[i] {
			fail("standby flight %+v differs from primary %+v", standby[i], primary[i])
			break
		}
	}
	return problems, lagEnd
}
