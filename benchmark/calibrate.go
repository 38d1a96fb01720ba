package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Host speed calibration. The benchmark shares its host with other
// tenants, and their load changes the speed of the same work by up to
// 2x within seconds — more than any bound a regression check could
// use. So before and after each timed repetition the benchmark runs a
// fixed loop of its own (no code of the program) on nproc goroutines,
// and scales the repetition's durations by the loop's nominal time
// over its measured time: every timing reads in reference-host time.
// A change to the program moves the repetition but not the loop; host
// drift moves both. The measured factor is kept in results.json as
// host_speed.
//
// The loop is a small switch-dispatched bytecode interpreter, the same
// kind of work as the program's simulator, so other tenants slow it
// about as much as they slow the program. A table-update loop of
// xorshift steps tracked the host worse: the program slowed more than
// it did.

// calNominal is one calibration sample's time on the reference host
// (a 2-vCPU VM); only ratios between commits on one host matter, so
// its exact value is a unit, not a claim.
const calNominal = 4 * time.Millisecond

// calSteps sizes one calibration sample near calNominal.
const calSteps = 1_700_000

var calSink atomic.Uint64

// calibrate returns the median time of samples runs of the
// calibration loop on nproc goroutines; the median resists a stray
// interruption. It allocates nothing, and every timed repetition, block
// of set-ups and daemon round ends by collecting its own garbage inside
// its timing, so the loop does not share the CPUs with a collection
// either.
func calibrate(samples int) time.Duration {
	n := nproc()
	times := make([]float64, samples)
	for k := range times {
		start := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				calSink.Add(calInterp(seed))
			}(uint64(12345 + g))
		}
		wg.Wait()
		times[k] = float64(time.Since(start))
	}
	return time.Duration(median(times))
}

// calInterp runs calSteps instructions of a 64-instruction program
// drawn from seed, over eight registers and 32 KiB of memory, with
// data-dependent branches, and returns a value that depends on all of
// them.
func calInterp(seed uint64) uint64 {
	type ins struct{ op, a, b, target uint8 }
	var prog [64]ins
	x := seed
	for i := range prog {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		prog[i] = ins{op: uint8(x % 6), a: uint8(x >> 8 % 8), b: uint8(x >> 16 % 8), target: uint8(x >> 24 % 64)}
	}
	var regs [8]uint64
	for i := range regs {
		regs[i] = uint64(i)*7919 + seed
	}
	var mem [4096]uint64
	pc := 0
	for step := 0; step < calSteps; step++ {
		in := prog[pc]
		pc++
		switch in.op {
		case 0:
			regs[in.a] += regs[in.b] + 1
		case 1:
			regs[in.a] ^= regs[in.b] << 1
		case 2:
			regs[in.a] = mem[regs[in.b]&4095]
		case 3:
			mem[regs[in.a]&4095] = regs[in.b]
		case 4:
			if regs[in.a]&1 == 0 {
				pc = int(in.target)
			}
		case 5:
			regs[in.a] = regs[in.a]*6364136223846793005 + 1442695040888963407
		}
		if pc == len(prog) {
			pc = 0
		}
	}
	return regs[0] + mem[7]
}

// hostSpeed runs fn between two calibrations and returns the factor
// that converts durations measured during fn into reference-host time.
// Each repetition gets a fresh calibration on either side: reusing one
// repetition's "after" as the next one's "before" spread the sweep's
// setup_s by 20% instead of 6% over eight seeds, and lowered it by a
// quarter, so the first calibration after a repetition runs slow.
func (r *run) hostSpeed(fn func() error) (float64, error) {
	before := calibrate(r.size.calSamples)
	err := fn()
	after := calibrate(r.size.calSamples)
	speed := float64(2*calNominal) / float64(before+after)
	r.mu.Lock()
	r.speeds = append(r.speeds, speed)
	r.mu.Unlock()
	return speed, err
}

// timedRep runs fn as one timed repetition and returns its duration in
// reference-host time. The duration includes collecting the garbage fn
// left behind, so allocation a change adds or removes shows even in a
// repetition too short to trigger a collection of its own.
func (r *run) timedRep(fn func() error) (time.Duration, error) {
	var d time.Duration
	speed, err := r.hostSpeed(func() error {
		var err error
		d, err = timeIt(fn)
		d += collectGarbage()
		return err
	})
	return scaled(d, speed), err
}

// setupBlock runs the workload's set-up setupReps times and records
// each as a setup_s sample; fn runs one set-up and returns the duration
// of its timed part. A set-up takes a few milliseconds, less than a
// calibration of its own, so the set-ups share one pair of
// calibrations. The block ends by collecting its garbage, and each
// set-up is charged an equal share of that collection.
func (r *run) setupBlock(fn func() (time.Duration, error)) error {
	ds := make([]time.Duration, r.size.setupReps)
	speed, err := r.hostSpeed(func() error {
		for i := range ds {
			var err error
			if ds[i], err = fn(); err != nil {
				return err
			}
		}
		gc := collectGarbage() / time.Duration(len(ds))
		for i := range ds {
			ds[i] += gc
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.mu.Lock()
	for _, d := range ds {
		r.setups = append(r.setups, scaled(d, speed).Seconds())
	}
	r.mu.Unlock()
	return nil
}

// timeIt runs fn and returns how long it took.
func timeIt(fn func() error) (time.Duration, error) {
	t := time.Now()
	err := fn()
	return time.Since(t), err
}

// collectGarbage runs a full collection and returns how long it took.
func collectGarbage() time.Duration {
	t := time.Now()
	runtime.GC()
	return time.Since(t)
}

func scaled(d time.Duration, speed float64) time.Duration {
	return time.Duration(float64(d) * speed)
}
