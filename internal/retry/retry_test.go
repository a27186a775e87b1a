package retry

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fastPolicy keeps test backoffs in the microsecond range.
func fastPolicy() Policy {
	return Policy{InitialDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond, Seed: 1}
}

func TestDoSucceedsAfterTransientFailures(t *testing.T) {
	calls := 0
	err := Do(context.Background(), fastPolicy(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do returned %v", err)
	}
	if calls != 3 {
		t.Fatalf("op ran %d times, want 3", calls)
	}
}

func TestDoStopsAtMaxAttempts(t *testing.T) {
	calls := 0
	boom := errors.New("boom")
	p := fastPolicy()
	p.MaxAttempts = 3
	err := Do(context.Background(), p, func(context.Context) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 3 {
		t.Fatalf("op ran %d times, want 3", calls)
	}
}

func TestPermanentStopsImmediately(t *testing.T) {
	calls := 0
	boom := errors.New("fatal")
	err := Do(context.Background(), fastPolicy(), func(context.Context) error {
		calls++
		return Permanent(boom)
	})
	// The Permanent wrapper must be stripped so callers match the
	// original error.
	if !errors.Is(err, boom) || IsPermanent(err) {
		t.Fatalf("err = %v, want unwrapped boom", err)
	}
	if calls != 1 {
		t.Fatalf("op ran %d times, want 1", calls)
	}
}

func TestPermanentNil(t *testing.T) {
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) != nil")
	}
}

func TestDoRespectsContextDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	p := Policy{InitialDelay: time.Hour, MaxDelay: time.Hour, MaxAttempts: 5, Seed: 7}
	start := time.Now()
	errCh := make(chan error, 1)
	go func() {
		errCh <- Do(ctx, p, func(context.Context) error {
			calls++
			return errors.New("transient")
		})
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("Do returned nil after cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do did not return after cancellation")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Do blocked %v through its backoff sleep", elapsed)
	}
}

func TestDoCancelledBeforeFirstAttempt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Do(ctx, fastPolicy(), func(context.Context) error {
		calls++
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Fatalf("op ran %d times on a dead context", calls)
	}
}

func TestBackoffCeilingCapsAndSeededJitterDeterministic(t *testing.T) {
	p := Policy{InitialDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}.withDefaults()
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond,
	}
	for i, w := range want {
		if got := backoffCeiling(p, i+1); got != w {
			t.Fatalf("ceiling(attempt %d) = %v, want %v", i+1, got, w)
		}
	}

	// Same seed, same observed delays.
	run := func() []time.Duration {
		var delays []time.Duration
		p := fastPolicy()
		p.MaxAttempts = 5
		p.OnRetry = func(_ int, _ error, d time.Duration) { delays = append(delays, d) }
		_ = Do(context.Background(), p, func(context.Context) error { return errors.New("x") })
		return delays
	}
	a, b := run(), run()
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("delay counts = %d, %d, want 4", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded jitter diverged at retry %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestOnRetryReportsAttemptsAndErrors(t *testing.T) {
	var attempts []int
	p := fastPolicy()
	p.MaxAttempts = 3
	p.OnRetry = func(attempt int, err error, _ time.Duration) {
		if err == nil {
			t.Error("OnRetry called with nil error")
		}
		attempts = append(attempts, attempt)
	}
	_ = Do(context.Background(), p, func(context.Context) error { return errors.New("x") })
	if len(attempts) != 2 || attempts[0] != 1 || attempts[1] != 2 {
		t.Fatalf("OnRetry attempts = %v, want [1 2]", attempts)
	}
}
