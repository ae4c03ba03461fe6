package resilience

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/sim"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{fmt.Errorf("op: %w", objstore.ErrTransient), Retryable},
		{fmt.Errorf("op: %w", objstore.ErrPreconditionFail), CASConflict},
		{fmt.Errorf("op: %w", ErrDeadlineExceeded), Deadline},
		{fmt.Errorf("op: %w", objstore.ErrAccessDenied), Fatal},
		{fmt.Errorf("op: %w", objstore.ErrNoSuchObject), Fatal},
		{errors.New("garbage"), Fatal},
		// Deadline wins over the fault being retried when time ran out.
		{fmt.Errorf("x: %w (while retrying %w)", ErrDeadlineExceeded, objstore.ErrTransient), Deadline},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestDoRetriesTransientWithBackoff(t *testing.T) {
	clock := sim.NewClock()
	reg := obs.NewRegistry()
	p := DefaultPolicy()
	p.Meter = reg
	b := NewBudget(clock, 10, 1)

	calls := 0
	err := p.Do(clock, b, "GET b/k", func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("boom: %w", objstore.ErrTransient)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d", calls)
	}
	if clock.Now() == 0 {
		t.Fatal("retries charged no backoff to the simulated clock")
	}
	if reg.Get("retries") != 2 || reg.Get("retry_successes") != 1 {
		t.Fatalf("retries=%d retry_successes=%d", reg.Get("retries"), reg.Get("retry_successes"))
	}
	if b.Remaining() != 8 {
		t.Fatalf("budget remaining = %d", b.Remaining())
	}
}

func TestDoSurfacesFatalImmediately(t *testing.T) {
	clock := sim.NewClock()
	p := DefaultPolicy()
	calls := 0
	err := p.Do(clock, nil, "GET b/k", func() error {
		calls++
		return fmt.Errorf("no: %w", objstore.ErrAccessDenied)
	})
	if !errors.Is(err, objstore.ErrAccessDenied) || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	if clock.Now() != 0 {
		t.Fatal("fatal error must not charge backoff")
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	p := DefaultPolicy() // 4 attempts
	calls := 0
	err := p.Do(sim.NewClock(), nil, "GET b/k", func() error {
		calls++
		return fmt.Errorf("boom: %w", objstore.ErrTransient)
	})
	if calls != 4 {
		t.Fatalf("calls = %d", calls)
	}
	if !errors.Is(err, objstore.ErrTransient) {
		t.Fatalf("exhaustion must keep the cause: %v", err)
	}
}

func TestDoStopsOnBudgetExhaustion(t *testing.T) {
	clock := sim.NewClock()
	b := NewBudget(clock, 1, 1) // one retry for everything
	p := DefaultPolicy()
	calls := 0
	err := p.Do(clock, b, "GET b/k", func() error {
		calls++
		return fmt.Errorf("boom: %w", objstore.ErrTransient)
	})
	if calls != 2 {
		t.Fatalf("calls = %d, want first attempt + 1 budgeted retry", calls)
	}
	if !errors.Is(err, ErrBudgetExhausted) || !errors.Is(err, objstore.ErrTransient) {
		t.Fatalf("err = %v, want ErrBudgetExhausted wrapping the cause", err)
	}
}

func TestDeadlineStopsRetrying(t *testing.T) {
	clock := sim.NewClock()
	b := NewBudget(clock, 100, 1)
	b.SetDeadline(50 * time.Millisecond)
	p := DefaultPolicy()
	calls := 0
	err := p.Do(clock, b, "GET b/k", func() error {
		calls++
		clock.Advance(40 * time.Millisecond) // each attempt costs 40ms
		return fmt.Errorf("boom: %w", objstore.ErrTransient)
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if Classify(err) != Deadline {
		t.Fatalf("class = %v", Classify(err))
	}
	if calls > 2 {
		t.Fatalf("kept retrying past the deadline: %d calls", calls)
	}
}

func TestDeadlineSeesParallelTrackFrontier(t *testing.T) {
	clock := sim.NewClock()
	b := NewBudget(clock, 100, 1)
	b.SetDeadline(10 * time.Millisecond)
	tr := clock.StartTrack()
	tr.Charge(20 * time.Millisecond) // track is past the deadline; clock is not
	err := b.CheckDeadline(tr)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("track frontier not consulted: %v", err)
	}
	if err := b.CheckDeadline(clock); err != nil {
		t.Fatalf("global clock is still before the deadline: %v", err)
	}
}

func TestDoCASReloadsOnConflict(t *testing.T) {
	p := DefaultPolicy()
	clock := sim.NewClock()
	gen, have := 0, 3 // writer believes gen 0; store is at 3
	reloads := 0
	err := p.DoCAS(clock, nil, "PUT b/hint", func() error {
		if gen != have {
			return fmt.Errorf("%w: have %d want %d", objstore.ErrPreconditionFail, have, gen)
		}
		have++
		return nil
	}, func() error {
		reloads++
		gen = have
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if reloads != 1 {
		t.Fatalf("reloads = %d", reloads)
	}
}

func TestDoCASBoundedOnPersistentConflict(t *testing.T) {
	p := DefaultPolicy()
	err := p.DoCAS(sim.NewClock(), nil, "PUT b/hint", func() error {
		return fmt.Errorf("%w: contended", objstore.ErrPreconditionFail)
	}, func() error { return nil })
	if !errors.Is(err, objstore.ErrPreconditionFail) {
		t.Fatalf("err = %v", err)
	}
}

func TestHedgedDoRacesSlowPrimary(t *testing.T) {
	clock := sim.NewClock()
	reg := obs.NewRegistry()
	p := DefaultPolicy() // HedgeAfter 150ms
	p.Meter = reg
	slowOnce := true
	err := p.HedgedDo(clock, nil, "GET b/k", func(ch sim.Charger) error {
		if slowOnce {
			slowOnce = false
			ch.Charge(500 * time.Millisecond) // tail event
		} else {
			ch.Charge(30 * time.Millisecond) // hedge runs at normal speed
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Caller pays HedgeAfter + hedge latency, not the 500ms tail.
	want := 150*time.Millisecond + 30*time.Millisecond
	if clock.Now() != want {
		t.Fatalf("charged %v, want %v", clock.Now(), want)
	}
	if reg.Get("hedges") != 1 || reg.Get("hedge_wins") != 1 {
		t.Fatalf("hedges=%d wins=%d", reg.Get("hedges"), reg.Get("hedge_wins"))
	}
}

func TestHedgedDoFastPrimaryDoesNotHedge(t *testing.T) {
	clock := sim.NewClock()
	reg := obs.NewRegistry()
	p := DefaultPolicy()
	p.Meter = reg
	if err := p.HedgedDo(clock, nil, "GET b/k", func(ch sim.Charger) error {
		ch.Charge(30 * time.Millisecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if clock.Now() != 30*time.Millisecond {
		t.Fatalf("charged %v", clock.Now())
	}
	if reg.Get("hedges") != 0 {
		t.Fatal("fast primary must not hedge")
	}
}

func TestNilPolicyAndNilBudgetAreSafe(t *testing.T) {
	var p *Policy
	clock := sim.NewClock()
	calls := 0
	err := p.Do(clock, nil, "GET b/k", func() error {
		calls++
		return fmt.Errorf("boom: %w", objstore.ErrTransient)
	})
	if calls != 1 || !errors.Is(err, objstore.ErrTransient) {
		t.Fatalf("nil policy: calls=%d err=%v", calls, err)
	}
	if err := p.HedgedDo(clock, nil, "GET b/k", func(ch sim.Charger) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestListAllRetriesPerPage(t *testing.T) {
	clock := sim.NewClock()
	st := objstore.New(sim.GCP, clock)
	cred := objstore.Credential{Principal: "sa@test"}
	if err := st.CreateBucket(cred, "b"); err != nil {
		t.Fatal(err)
	}
	// Enough objects for multiple LIST pages.
	for i := 0; i < 2500; i++ {
		if _, err := st.Put(cred, "b", fmt.Sprintf("p/k%04d", i), []byte("x"), ""); err != nil {
			t.Fatal(err)
		}
	}
	st.FailNext(1) // first page faults once
	got, err := ListAll(DefaultPolicy(), clock, NewBudget(clock, 8, 1), st, cred, "b", "p/")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2500 {
		t.Fatalf("listed %d objects", len(got))
	}
}

func TestSeed64Stable(t *testing.T) {
	if Seed64("q1") == Seed64("q2") {
		t.Fatal("different strings should hash differently")
	}
	if Seed64("q1") != Seed64("q1") {
		t.Fatal("seed must be stable")
	}
}
