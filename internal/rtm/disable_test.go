package rtm

import (
	"testing"

	"rskip/internal/machine"
	"rskip/internal/predict"
)

func TestCheckDisableDI(t *testing.T) {
	m := &Manager{cfg: DefaultConfig(0.2)}
	st := &LoopStats{Observed: 300, Mispredicted: 299}
	m.checkDisable(st)
	if !st.DIDisabled {
		t.Error("pathological misprediction rate did not disable DI")
	}
	st2 := &LoopStats{Observed: 300, Mispredicted: 30}
	m.checkDisable(st2)
	if st2.DIDisabled {
		t.Error("healthy loop was disabled")
	}
	// Below the evidence threshold nothing happens.
	st3 := &LoopStats{Observed: 100, Mispredicted: 100}
	m.checkDisable(st3)
	if st3.DIDisabled {
		t.Error("disabled without enough evidence")
	}
}

func TestCheckDisableAM(t *testing.T) {
	m := &Manager{cfg: DefaultConfig(0.2)}
	st := &LoopStats{AMProbes: 100, AMWrong: 80}
	m.checkDisable(st)
	if !st.AMDisabled {
		t.Error("inaccurate memo table not disabled")
	}
	st2 := &LoopStats{AMProbes: 100, AMWrong: 10}
	m.checkDisable(st2)
	if st2.AMDisabled {
		t.Error("accurate memo table disabled")
	}
}

func TestDisableDIRoutesToRecompute(t *testing.T) {
	rsk, _ := buildPP(t, rampSrc)
	cfg := DefaultConfig(0.2)
	cfg.DisableDI = true
	mgr, _, _ := runManagedWith(t, rsk, cfg)
	for _, st := range mgr.Stats {
		if st.SkippedDI != 0 {
			t.Error("DisableDI still skipped via interpolation")
		}
		if st.Recomputed != st.Observed {
			t.Errorf("recomputed %d of %d with DI disabled", st.Recomputed, st.Observed)
		}
	}
}

func TestLoopStatsRates(t *testing.T) {
	st := &LoopStats{Observed: 100, SkippedDI: 40, SkippedAM: 30}
	if st.SkipRate() != 0.7 {
		t.Errorf("SkipRate = %g", st.SkipRate())
	}
	if st.DISkipRate() != 0.4 {
		t.Errorf("DISkipRate = %g", st.DISkipRate())
	}
	empty := &LoopStats{}
	if empty.SkipRate() != 0 || empty.DISkipRate() != 0 {
		t.Error("empty stats should rate 0")
	}
}

func TestObserveInactiveLoopErrors(t *testing.T) {
	rsk, _ := buildPP(t, rampSrc)
	mgr := NewManager(rsk, DefaultConfig(0.2))
	m := machine.New(rsk, machine.Config{TraceFn: -1})
	if err := mgr.Observe(m, 99, 0, 0, 0); err == nil {
		t.Error("observe for unknown loop should error")
	}
}

func TestLoopExitWithoutEnterIsBenign(t *testing.T) {
	rsk, _ := buildPP(t, rampSrc)
	mgr := NewManager(rsk, DefaultConfig(0.2))
	m := machine.New(rsk, machine.Config{TraceFn: -1})
	if err := mgr.LoopExit(m, rsk.Loops[0].ID); err != nil {
		t.Errorf("zero-trip loop exit errored: %v", err)
	}
}

func TestToTrendConversion(t *testing.T) {
	if toTrend(5, false) != 5 {
		t.Error("int bits conversion wrong")
	}
	neg := int64(-3)
	if toTrend(uint64(neg), false) != -3 {
		t.Error("negative int conversion wrong")
	}
	bits := predict.Point{}.Bits // zero
	if toTrend(bits, true) != 0 {
		t.Error("float zero conversion wrong")
	}
}
