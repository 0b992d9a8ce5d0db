package shard_test

// Streaming versus batch detection latency on the adversary zoo: the
// online AR path (-stream-detect) must catch every campaign that batch
// maintenance windows catch, and must alert within slMaxLatencyDays
// rating-days of onset on every campaign it catches. Both paths see the
// identical combined workload and the identical count-window detector
// configuration; the batch side closes sequential 10-day maintenance
// windows the way matrixRun does, so its latency quantizes to window
// ends while the streaming side can alert mid-window.
//
// The runs are deterministic: one shard means one pump consuming
// time-ordered batches FIFO from a single submitter, so alert times are
// a pure function of the seed as long as the pump takes every rating —
// which the test checks (no late drops, no sheds).

import (
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/randx"
	"repro/internal/rating"
	"repro/internal/shard"
	"repro/internal/sim"
)

// Zoo campaign shape shared by every latency run. The background is
// sim.DefaultZoo (honest variance 0.05); the campaign's tight variance
// is the paper's low-error signature the AR detector keys on.
const (
	slAStart    = 20
	slAEnd      = 44
	slRate      = 4
	slBias      = 0.35
	slVariance  = 0.005
	slColluders = 8

	slWindowDays = 10
	slWindows    = 6

	// Count-window detector shared by both paths. The threshold is
	// calibrated on the default zoo background the same way
	// zooARThreshold is on the matrix background: below the honest
	// bulk's window error, so honest windows never charge.
	slSize      = 30
	slStep      = 15
	slThreshold = 0.15

	// slAlertThreshold is the accrued stream suspicion at which a
	// rater alerts.
	slAlertThreshold = 0.3

	// slMaxLatencyDays is the committed floor: the worst detected
	// attack sits at ~8.7 rating-days (whitewash), and 12 leaves
	// headroom while still failing if streaming slips past it.
	slMaxLatencyDays = 12
)

// streamLatency is one attack strategy's streaming-versus-batch
// detection latency, in days after campaign onset, plus the streaming
// path's accounting. Undetected runs are censored at the remaining
// horizon.
type streamLatency struct {
	Attack            string
	StreamDetected    bool
	StreamLatencyDays float64
	BatchDetected     bool
	BatchLatencyDays  float64
	Submitted         int
	Stream            shard.StreamStats
}

// slStrategies lists the zoo strategies with their free knobs tuned to
// the default zoo background (honest phases mimic its variance, not
// the illustrative workload's).
func slStrategies() []attack.Strategy {
	v := sim.DefaultZoo().GoodVar
	return []attack.Strategy{
		attack.Constant{},
		attack.Camouflage{HonestVariance: v},
		attack.OnOff{BurstDays: 3, SleepDays: 3},
		attack.Ramp{},
		attack.TrustThenStrike{BuildRatio: 0.5, HonestVariance: v},
		attack.Sybil{},
		attack.Whitewash{IdentityRatings: 3},
		attack.RotatingTarget{},
		attack.Oscillate{HonestDays: 4, AttackDays: 4, HonestVariance: v},
	}
}

func slDetector() detector.Config {
	return detector.Config{Size: slSize, Step: slStep, Threshold: slThreshold}
}

func TestStreamLatencyFloor(t *testing.T) {
	batchCaught := 0
	for i, strat := range slStrategies() {
		l, err := streamLatencyOne(strat, randx.Derive(1, i))
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		t.Logf("%-17s stream %-5v %5.2f d   batch %-5v %2.0f d", l.Attack,
			l.StreamDetected, l.StreamLatencyDays, l.BatchDetected, l.BatchLatencyDays)
		if s := l.Stream; s.Pushed != int64(l.Submitted) || s.LateDropped != 0 || s.Shed != 0 {
			t.Errorf("%s: stream pushed %d of %d ratings (late %d, shed %d)",
				l.Attack, s.Pushed, l.Submitted, s.LateDropped, s.Shed)
		}
		if l.BatchDetected {
			batchCaught++
			if !l.StreamDetected {
				t.Errorf("%s: batch windows detect it but streaming does not", l.Attack)
			}
		}
		if l.StreamDetected && l.StreamLatencyDays > slMaxLatencyDays {
			t.Errorf("%s: streaming latency %.2f days above the %d-day floor",
				l.Attack, l.StreamLatencyDays, slMaxLatencyDays)
		}
	}
	if batchCaught == 0 {
		t.Fatal("batch windows caught no attack, so the floor checks nothing")
	}
}

func streamLatencyOne(strat attack.Strategy, seed int64) (streamLatency, error) {
	trace, err := sim.GenerateZoo(randx.DeriveRand(seed, 0), sim.DefaultZoo())
	if err != nil {
		return streamLatency{}, err
	}
	campaign, err := strat.Plan(randx.Derive(seed, 1), attack.Params{
		Object:    1,
		Targets:   trace.ObjectIDs(),
		Start:     slAStart,
		End:       slAEnd,
		Rate:      slRate,
		Bias:      slBias,
		Variance:  slVariance,
		Levels:    trace.Params.RLevels,
		Colluders: slColluders,
	}, trace.QualityOf)
	if err != nil {
		return streamLatency{}, err
	}
	combined := append(append([]sim.LabeledRating(nil), trace.Ratings...), campaign...)
	sim.SortByTime(combined)
	malicious := make(map[rating.RaterID]bool)
	for _, l := range campaign {
		if l.Unfair {
			malicious[l.Rating.Rater] = true
		}
	}
	rs := sim.Ratings(combined)

	horizon := float64(slWindows * slWindowDays)
	stats := streamLatency{
		Attack:            strat.Name(),
		StreamLatencyDays: horizon - slAStart, // censored until detected
		BatchLatencyDays:  horizon - slAStart,
		Submitted:         len(rs),
	}

	// Batch side: sequential maintenance windows, latency quantized to
	// the first window end that flags a true campaign identity.
	sys, err := core.NewSystem(core.Config{Detector: slDetector()})
	if err != nil {
		return streamLatency{}, err
	}
	if err := sys.SubmitAll(rs); err != nil {
		return streamLatency{}, err
	}
	for k := 0; k < slWindows && !stats.BatchDetected; k++ {
		start, end := float64(k*slWindowDays), float64((k+1)*slWindowDays)
		if _, err := sys.ProcessWindow(start, end); err != nil {
			return streamLatency{}, err
		}
		for _, id := range sys.MaliciousRaters() {
			if malicious[id] {
				stats.BatchDetected = true
				stats.BatchLatencyDays = end - slAStart
				break
			}
		}
	}

	// Streaming side: one shard, one submitter, time-ordered chunks —
	// alert times are deterministic.
	engine, err := shard.NewEngine(core.Config{Detector: slDetector()}, 1)
	if err != nil {
		return streamLatency{}, err
	}
	st, err := engine.EnableStreaming(shard.StreamConfig{
		Detector:       slDetector(),
		AlertThreshold: slAlertThreshold,
	})
	if err != nil {
		return streamLatency{}, err
	}
	const chunk = 256
	for lo := 0; lo < len(rs); lo += chunk {
		hi := lo + chunk
		if hi > len(rs) {
			hi = len(rs)
		}
		if err := engine.SubmitShard(0, rs[lo:hi]); err != nil {
			return streamLatency{}, err
		}
	}
	st.Sync()
	st.Close()
	stats.Stream = st.Stats()
	alerts, _ := st.Alerts().Alerts(0)
	for _, a := range alerts {
		if !malicious[a.Rater] {
			continue
		}
		lat := a.FirstFlagged - slAStart
		if lat < 0 {
			lat = 0
		}
		if !stats.StreamDetected || lat < stats.StreamLatencyDays {
			stats.StreamLatencyDays = lat
		}
		stats.StreamDetected = true
	}
	return stats, nil
}
