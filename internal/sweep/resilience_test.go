package sweep

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	var calls atomic.Int64
	tasks := []Task[int]{func(ctx context.Context) (int, error) {
		if calls.Add(1) < 3 {
			return 0, errors.New("transient")
		}
		return 42, nil
	}}
	results, err := Run(context.Background(), tasks, Options{Retries: 2})
	if err != nil {
		t.Fatalf("sweep failed despite retries: %v", err)
	}
	if results[0].Value != 42 || results[0].Attempts != 3 {
		t.Errorf("result = %+v, want value 42 after 3 attempts", results[0])
	}
}

func TestRetryGivesUpAndReportsAttempts(t *testing.T) {
	permanent := errors.New("permanent")
	tasks := []Task[int]{func(ctx context.Context) (int, error) { return 0, permanent }}
	results, err := Run(context.Background(), tasks, Options{Retries: 2})
	if err == nil || !errors.Is(err, permanent) {
		t.Fatalf("err = %v, want wrapped permanent error", err)
	}
	if results[0].Attempts != 3 {
		t.Errorf("Attempts = %d, want 3", results[0].Attempts)
	}
}

func TestExpBackoffIsDeterministic(t *testing.T) {
	b := ExpBackoff(10*time.Millisecond, 40*time.Millisecond)
	want := []time.Duration{10, 20, 40, 40, 40}
	for i, w := range want {
		if got := b(i); got != w*time.Millisecond {
			t.Errorf("backoff(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
}

func TestTaskTimeoutCancelsAttemptContext(t *testing.T) {
	tasks := []Task[int]{func(ctx context.Context) (int, error) {
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(5 * time.Second):
			return 0, errors.New("deadline never fired")
		}
	}}
	results, err := Run(context.Background(), tasks, Options{TaskTimeout: 10 * time.Millisecond})
	if err == nil || !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Fatalf("task err = %v, want deadline exceeded", results[0].Err)
	}
}

func TestSalvageReturnsPartialResultsAndMultiError(t *testing.T) {
	inputs := []int{0, 1, 2, 3, 4}
	boom := errors.New("boom")
	results, err := MapResults(context.Background(), inputs,
		func(ctx context.Context, in int) (int, error) {
			if in%2 == 1 {
				return 0, fmt.Errorf("input %d: %w", in, boom)
			}
			return in * 10, nil
		},
		Options{Salvage: true, TaskLabel: func(i int) string { return fmt.Sprintf("point=%d", i) }})
	if err == nil {
		t.Fatal("salvage sweep with failures returned nil error")
	}
	var multi *MultiError
	if !errors.As(err, &multi) {
		t.Fatalf("err %T is not a *MultiError", err)
	}
	if len(multi.Errors) != 2 || multi.Errors[0].Index != 1 || multi.Errors[1].Index != 3 {
		t.Fatalf("MultiError = %v, want tasks 1 and 3", multi.Errors)
	}
	if !errors.Is(err, boom) {
		t.Error("MultiError does not unwrap to the task error")
	}
	if !strings.Contains(multi.Errors[0].Error(), "point=1") {
		t.Errorf("task error %q missing its label", multi.Errors[0].Error())
	}
	// Every successful point survives, in order, despite the failures.
	for _, i := range []int{0, 2, 4} {
		if results[i].Err != nil || results[i].Value != i*10 {
			t.Errorf("salvaged result %d = %+v", i, results[i])
		}
	}
}

// TestMapErrorNamesItsInput is the regression test for the error-opacity
// fix: a failed Map used to report only the flat task index, leaving the
// caller to guess which sweep point died.
func TestMapErrorNamesItsInput(t *testing.T) {
	inputs := []string{"hitlist=1000", "hitlist=2000", "hitlist=4000"}
	_, err := Map(context.Background(), inputs,
		func(ctx context.Context, in string) (int, error) {
			if in == "hitlist=2000" {
				return 0, errors.New("diverged")
			}
			return 0, nil
		},
		Options{TaskLabel: func(i int) string { return inputs[i] }})
	if err == nil {
		t.Fatal("Map swallowed the failure")
	}
	if !strings.Contains(err.Error(), "hitlist=2000") {
		t.Errorf("Map error %q does not name the failing input", err)
	}
}

func TestCheckpointPersistAndReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	cp, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	type point struct {
		X float64 `json:"x"`
		N int     `json:"n"`
	}
	want := point{X: 0.1 + 0.2, N: 7} // a float that needs exact round-trip
	if err := cp.Save("a", want); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var got point
	hit, err := reopened.Lookup("a", &got)
	if err != nil || !hit {
		t.Fatalf("Lookup after reload: hit=%v err=%v", hit, err)
	}
	if got != want {
		t.Errorf("round trip changed the value: %+v vs %+v", got, want)
	}
	if hit, _ := reopened.Lookup("missing", &got); hit {
		t.Error("Lookup invented a missing key")
	}
	if reopened.Len() != 1 {
		t.Errorf("Len = %d, want 1", reopened.Len())
	}
}

func TestCheckpointRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCheckpoint(path); err == nil {
		t.Error("corrupt checkpoint accepted")
	}
	if _, err := OpenCheckpoint(""); err == nil {
		t.Error("empty checkpoint path accepted")
	}
}

// TestResumedSweepIsByteIdenticalAndSkipsCachedTasks is the
// checkpoint/resume contract: a sweep interrupted partway and resumed
// against the same checkpoint file reproduces the uninterrupted sweep's
// output byte for byte, without re-executing the tasks that completed
// before the interruption.
func TestResumedSweepIsByteIdenticalAndSkipsCachedTasks(t *testing.T) {
	inputs := []int{1, 2, 3, 4, 5, 6}
	key := func(i int, in int) string { return fmt.Sprintf("seed=%d", in) }
	// The worker's output exercises float exactness through JSON.
	work := func(ctx context.Context, in int) (float64, error) {
		return float64(in) / 7.0, nil
	}
	serialize := func(vals []float64) string {
		var b strings.Builder
		for _, v := range vals {
			fmt.Fprintf(&b, "%x\n", v)
		}
		return b.String()
	}

	// Ground truth: one uninterrupted, checkpoint-free sweep.
	clean, err := Map(context.Background(), inputs, work, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: the worker fails past the third task, salvaging the
	// first points into the checkpoint.
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	cp, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var firstCalls atomic.Int64
	_, err = MapCheckpointed(context.Background(), inputs, key,
		func(ctx context.Context, in int) (float64, error) {
			firstCalls.Add(1)
			if in > 3 {
				return 0, errors.New("interrupted")
			}
			return work(ctx, in)
		}, cp, Options{Workers: 1, Salvage: true})
	if err == nil {
		t.Fatal("interrupted sweep reported success")
	}
	if cp.Len() != 3 {
		t.Fatalf("checkpoint holds %d entries after interruption, want 3", cp.Len())
	}

	// Resume from the file a fresh process would open.
	resumedCP, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var resumedCalls atomic.Int64
	resumed, err := MapCheckpointed(context.Background(), inputs, key,
		func(ctx context.Context, in int) (float64, error) {
			resumedCalls.Add(1)
			return work(ctx, in)
		}, resumedCP, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := resumedCalls.Load(); got != 3 {
		t.Errorf("resume re-executed %d tasks, want 3 (cached tasks must not rerun)", got)
	}
	if serialize(resumed) != serialize(clean) {
		t.Errorf("resumed sweep diverged from uninterrupted run:\nresumed:\n%sclean:\n%s",
			serialize(resumed), serialize(clean))
	}
}
