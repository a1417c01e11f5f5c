package eventsim

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/topo"
)

// ctsEnds records the instant every CTS leaves the air, which is where
// its NAV window opens.
type ctsEnds struct{ at []sim.Time }

func (c *ctsEnds) Frame(at sim.Time, wire []byte, _ bool) {
	if l, err := frame.Decode(wire); err == nil {
		if _, ok := l.(*frame.CTS); ok {
			c.at = append(c.at, at)
		}
	}
}

// maxOverlap is the largest number of NAV windows [t, t+nav) in force at
// one instant, for window openings t in ascending order. The window is
// half-open because a release and a CTS end at the same instant fire
// release first: the release was scheduled a whole CTS earlier.
func maxOverlap(opens []sim.Time, nav sim.Duration) int {
	best, lo := 0, 0
	for i, t := range opens {
		for opens[lo].Add(nav) <= t {
			lo++
		}
		if k := i - lo + 1; k > best {
			best = k
		}
	}
	return best
}

// runNAVPool runs 30 DCF stations in a 16 m disc under RTS/CTS with
// frame errors for 5 s, then deactivates every station and lets the air
// drain. It checks that the drained medium leaves no station busy and
// returns the NAV pool size together with the most reservations the
// CTS trace shows in force at once.
func runNAVPool(t *testing.T, phy model.PHY, seed int64) (pool, overlap int) {
	t.Helper()
	const n = 30
	policies := make([]mac.Policy, n)
	for i := range policies {
		policies[i] = mac.NewStandardDCF(16, 1024)
	}
	tr := &ctsEnds{}
	s, err := New(Config{
		Topology:       topo.New(topo.Point{}, topo.UniformDisc(n, 16, sim.NewRNG(seed)), topo.PaperRadii()),
		Policies:       policies,
		PHY:            phy,
		RTSCTS:         true,
		FrameErrorRate: 0.3,
		Trace:          tr,
		Seed:           seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5 * sim.Second)
	if s.frameErrors == 0 || s.successes == 0 {
		t.Fatalf("run exercised no failed reservations: %d errors, %d successes", s.frameErrors, s.successes)
	}
	// Stations mid-exchange finish it (deferred stop); nobody starts a
	// new one, so every frame and NAV window ends well within a second.
	if err := s.SetActiveAt(s.sched.Now(), 0); err != nil {
		t.Fatal(err)
	}
	s.sched.RunUntil(s.sched.Now().Add(sim.Second))
	if len(s.active) != 0 || s.apTx || s.apBusy != 0 {
		t.Fatalf("air not empty after draining: %d frames, apTx %v, apBusy %d", len(s.active), s.apTx, s.apBusy)
	}
	for _, st := range s.stations {
		if st.busyCount != 0 {
			t.Errorf("station %d: busyCount %d on an empty medium", st.id, st.busyCount)
		}
	}
	// With no reservation in force every record is back in the pool, and
	// the pool only grows when it is empty, so its size is the high-water
	// mark of concurrent reservations.
	return len(s.navPool), maxOverlap(tr.at, s.tNAV)
}

// With the paper's PHY two NAV windows never overlap. A CTS needs an
// uncollided RTS, and an RTS overlapping the reserved data frame
// collides with it at the AP, so the next RTS starts after that frame
// ends. The window ends SIFS + ACK later, and RTS + SIFS + CTS exceeds
// SIFS + ACK, so the next CTS always ends after the window closes. The
// pool therefore never holds more than one record.
func TestNAVPoolHighWaterPaperPHY(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		pool, overlap := runNAVPool(t, model.PaperPHY(), seed)
		if overlap != 1 || pool != 1 {
			t.Errorf("seed %d: NAV pool holds %d records, %d reservations overlapped; want 1 and 1", seed, pool, overlap)
		}
	}
}

// An ACK longer than RTS + CTS opens the overlap the paper's PHY rules
// out: when the reserved frame is lost, its transmitter (which holds no
// NAV of its own) can time out after DIFS and win a new reservation
// while the old NAV still runs. Stations then sit under two NAVs at
// once; the pool must grow to exactly that depth and no further, and
// both releases must still bring every station back to an idle medium.
func TestNAVPoolOverlappingReservations(t *testing.T) {
	phy := model.PaperPHY()
	phy.ACKLength = 2000 // 353 µs at 6 Mbps, against 86 µs for RTS + CTS
	for _, seed := range []int64{1, 2} {
		pool, overlap := runNAVPool(t, phy, seed)
		if overlap < 2 {
			t.Errorf("seed %d: no reservations overlapped (max %d); the case is not exercised", seed, overlap)
		}
		if pool != overlap {
			t.Errorf("seed %d: NAV pool holds %d records for %d concurrent reservations", seed, pool, overlap)
		}
	}
}
