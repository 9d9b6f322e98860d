package solver

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"waso/internal/core"
	"waso/internal/gen"
)

// TestExecutorBounds: no matter how many jobs are submitted concurrently,
// the number of simultaneously running tasks never exceeds the pool size,
// and a job's own maxParallel caps its share of the pool.
func TestExecutorBounds(t *testing.T) {
	ex := NewExecutor(2)
	defer ex.Close()

	var running, peak atomic.Int64
	task := func(int) {
		if r := running.Add(1); r > peak.Load() {
			peak.Store(r)
		}
		time.Sleep(time.Millisecond)
		running.Add(-1)
	}
	var wg sync.WaitGroup
	for j := 0; j < 8; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ok, _ := ex.run(LaneInteractive, time.Time{}, 2, 6, task); !ok {
				t.Error("run on open executor returned false")
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Errorf("peak concurrent tasks = %d, want ≤ 2", p)
	}

	// A job capped below the pool size never runs more than its cap at once.
	var capRunning, capPeak atomic.Int64
	ex.run(LaneInteractive, time.Time{}, 1, 8, func(int) {
		if r := capRunning.Add(1); r > capPeak.Load() {
			capPeak.Store(r)
		}
		time.Sleep(time.Millisecond)
		capRunning.Add(-1)
	})
	if p := capPeak.Load(); p != 1 {
		t.Errorf("maxParallel=1 job peaked at %d concurrent tasks", p)
	}

	st := ex.Stats()
	if st.Jobs != 9 || st.Tasks != 8*6+8 {
		t.Errorf("Stats() = (%d, %d), want (9, 56)", st.Jobs, st.Tasks)
	}
	// All work is drained: the snapshot must report an idle executor, and
	// every job's queue wait was recorded exactly once.
	if st.JobsActive != 0 || st.TasksQueued != 0 || st.TasksInFlight != 0 {
		t.Errorf("drained executor reports backlog: %+v", st)
	}
	if qw := ex.QueueWait().Snapshot(); qw.Count != 9 {
		t.Errorf("queue-wait observations = %d, want 9 (one per job)", qw.Count)
	}
}

// TestExecutorEveryTaskOnce: each task index runs exactly once even with
// many jobs interleaving on the shared pool.
func TestExecutorEveryTaskOnce(t *testing.T) {
	ex := NewExecutor(4)
	defer ex.Close()
	const n = 100
	var wg sync.WaitGroup
	for j := 0; j < 4; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts := make([]atomic.Int32, n)
			ex.run(LaneInteractive, time.Time{}, 4, n, func(idx int) { counts[idx].Add(1) })
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Errorf("task %d ran %d times", i, c)
				}
			}
		}()
	}
	wg.Wait()
}

// TestDefaultExecutor: a Solve whose context carries no executor runs its
// tasks on the package default executor.
func TestDefaultExecutor(t *testing.T) {
	g, err := gen.Spec{Kind: "powerlaw", N: 600, AvgDeg: 8, Seed: 3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	before := defaultExecutor().Stats().Tasks
	req := core.DefaultRequest(8)
	req.Samples = 30
	if _, err := (CBASND{}).Solve(context.Background(), g, req); err != nil {
		t.Fatal(err)
	}
	if after := defaultExecutor().Stats().Tasks; after <= before {
		t.Errorf("default executor tasks %d -> %d: the solve did not run on it", before, after)
	}
}

// TestExecutorCancellation: a cancelled solve returns ctx.Err() without
// stalling the pool, and an independent solve sharing the executor still
// completes.
func TestExecutorCancellation(t *testing.T) {
	g, err := gen.Spec{Kind: "powerlaw", N: 2000, AvgDeg: 8, Seed: 2}.Build()
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(2)
	defer ex.Close()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	req := core.DefaultRequest(10)
	req.Samples = 1 << 16
	if _, err := (CBASND{}).Solve(WithExecutor(cancelled, ex), g, req); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled solve: err = %v, want context.Canceled", err)
	}

	deadline, cancel2 := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel2()
	req.Prune = false
	if _, err := (CBASND{}).Solve(WithExecutor(deadline, ex), g, req); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline solve: err = %v, want context.DeadlineExceeded", err)
	}

	ok := core.DefaultRequest(6)
	ok.Samples = 10
	if _, err := (CBAS{}).Solve(WithExecutor(context.Background(), ex), g, ok); err != nil {
		t.Errorf("solve after cancellations: %v", err)
	}
}

// TestExecutorClose: Close drains queued work, run after Close reports
// false, and a Solve carrying a closed executor fails with
// ErrExecutorClosed.
func TestExecutorClose(t *testing.T) {
	ex := NewExecutor(1)
	var ran atomic.Int32
	var wg sync.WaitGroup
	for j := 0; j < 4; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex.run(LaneInteractive, time.Time{}, 1, 4, func(int) { ran.Add(1) })
		}()
	}
	wg.Wait()
	ex.Close()
	ex.Close() // idempotent
	if got := ran.Load(); got != 16 {
		t.Errorf("ran %d tasks before close, want 16", got)
	}
	if ok, _ := ex.run(LaneInteractive, time.Time{}, 1, 1, func(int) {}); ok {
		t.Error("run on closed executor returned true")
	}

	g, err := gen.Spec{Kind: "er", N: 200, AvgDeg: 4, Seed: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	req := core.DefaultRequest(5)
	req.Samples = 10
	if _, err := (CBAS{}).Solve(WithExecutor(context.Background(), ex), g, req); !errors.Is(err, ErrExecutorClosed) {
		t.Errorf("solve with closed executor: err = %v, want ErrExecutorClosed", err)
	}
}

// TestExecutorLaneIsolation: with the pool saturated by a large bulk
// backlog, an interactive job submitted afterwards completes while most of
// the bulk backlog is still queued — weighted round-robin gives the
// interactive lane priority instead of FIFO-ing it behind the backlog.
func TestExecutorLaneIsolation(t *testing.T) {
	ex := NewExecutor(2)
	defer ex.Close()

	const bulkTasks = 400
	release := make(chan struct{})
	var bulkDone atomic.Int32
	bulkFinished := make(chan struct{})
	go func() {
		<-release
		ex.run(LaneBulk, time.Time{}, 2, bulkTasks, func(int) {
			time.Sleep(200 * time.Microsecond)
			bulkDone.Add(1)
		})
		close(bulkFinished)
	}()
	close(release)
	// Wait until the bulk job is actually occupying the pool.
	for ex.Stats().Lanes[LaneBulk].TasksInFlight == 0 {
		time.Sleep(time.Millisecond)
	}

	var interDone atomic.Int32
	if ok, _ := ex.run(LaneInteractive, time.Time{}, 2, 8, func(int) {
		interDone.Add(1)
	}); !ok {
		t.Fatal("interactive run on open executor returned false")
	}
	if got := interDone.Load(); got != 8 {
		t.Errorf("interactive job ran %d/8 tasks", got)
	}
	// The interactive job finished while bulk work remained: if the
	// interactive tasks had been drained strictly after the backlog, every
	// bulk task would already be done here.
	if done := bulkDone.Load(); done >= bulkTasks {
		t.Errorf("bulk backlog fully drained (%d tasks) before interactive job finished — no lane priority", done)
	}
	<-bulkFinished

	st := ex.Stats()
	if st.Lanes[LaneBulk].Tasks != bulkTasks || st.Lanes[LaneInteractive].Tasks != 8 {
		t.Errorf("per-lane task totals = %+v", st.Lanes)
	}
	if st.Lanes[LaneBulk].Jobs != 1 || st.Lanes[LaneInteractive].Jobs != 1 {
		t.Errorf("per-lane job totals = %+v", st.Lanes)
	}
}

// TestExecutorBulkNotStarved: the 4:1 weighting is round-robin, not strict
// priority — bulk work keeps completing while interactive jobs keep
// arriving.
func TestExecutorBulkNotStarved(t *testing.T) {
	ex := NewExecutor(1)
	defer ex.Close()

	var bulkDone atomic.Int32
	bulkFinished := make(chan struct{})
	go func() {
		ex.run(LaneBulk, time.Time{}, 1, 50, func(int) { bulkDone.Add(1) })
		close(bulkFinished)
	}()
	// Keep the interactive lane continuously backlogged until bulk finishes.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					ex.run(LaneInteractive, time.Time{}, 1, 4, func(int) {
						time.Sleep(50 * time.Microsecond)
					})
				}
			}
		}()
	}
	select {
	case <-bulkFinished:
	case <-time.After(30 * time.Second):
		t.Errorf("bulk job starved: %d/50 tasks done under interactive flood", bulkDone.Load())
	}
	close(stop)
	wg.Wait()
}

// TestExecutorDeadlineDrop: a job whose deadline has already passed at
// dequeue has its tasks dropped, not run — counted in per-lane
// TasksExpired — and run reports expired=true.
func TestExecutorDeadlineDrop(t *testing.T) {
	ex := NewExecutor(1)
	defer ex.Close()

	// Occupy the single worker so the expired job sits queued past its
	// deadline before any of its tasks could start.
	gate := make(chan struct{})
	blockerDone := make(chan struct{})
	go func() {
		ex.run(LaneInteractive, time.Time{}, 1, 1, func(int) { <-gate })
		close(blockerDone)
	}()
	for ex.Stats().TasksInFlight == 0 {
		time.Sleep(time.Millisecond)
	}

	var ran atomic.Int32
	resCh := make(chan [2]bool, 1)
	go func() {
		ok, expired := ex.run(LaneInteractive, time.Now().Add(5*time.Millisecond), 1, 7,
			func(int) { ran.Add(1) })
		resCh <- [2]bool{ok, expired}
	}()
	// Let the deadline lapse while the job is still queued, then free the
	// worker.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	<-blockerDone
	res := <-resCh
	if !res[0] {
		t.Error("run on open executor returned ok=false")
	}
	if !res[1] {
		t.Error("expired job: run returned expired=false")
	}
	if got := ran.Load(); got != 0 {
		t.Errorf("expired job ran %d tasks, want 0", got)
	}
	st := ex.Stats()
	if st.TasksExpired != 7 || st.Lanes[LaneInteractive].TasksExpired != 7 {
		t.Errorf("TasksExpired = %d (lane %d), want 7", st.TasksExpired, st.Lanes[LaneInteractive].TasksExpired)
	}
	if st.TasksQueued != 0 || st.JobsActive != 0 {
		t.Errorf("dropped job left backlog: %+v", st)
	}

	// A job whose deadline is in the future runs normally.
	var okRan atomic.Int32
	if ok, expired := ex.run(LaneInteractive, time.Now().Add(time.Minute), 1, 3,
		func(int) { okRan.Add(1) }); !ok || expired {
		t.Errorf("future-deadline job: ok=%v expired=%v", ok, expired)
	}
	if okRan.Load() != 3 {
		t.Errorf("future-deadline job ran %d/3 tasks", okRan.Load())
	}
}

// TestExecutorDeadlineDropMidJob: a deadline that lapses while a job is
// part-way through drops only the remaining tasks; the in-flight task
// finishes and the job still retires cleanly.
func TestExecutorDeadlineDropMidJob(t *testing.T) {
	ex := NewExecutor(1)
	defer ex.Close()

	var ran atomic.Int32
	started := make(chan struct{})
	gate := make(chan struct{})
	resCh := make(chan [2]bool, 1)
	go func() {
		ok, expired := ex.run(LaneInteractive, time.Now().Add(25*time.Millisecond), 1, 5, func(idx int) {
			ran.Add(1)
			if idx == 0 {
				close(started)
				<-gate // outlive the deadline so the rest of the queue expires
			}
		})
		resCh <- [2]bool{ok, expired}
	}()
	<-started
	time.Sleep(50 * time.Millisecond) // let the deadline lapse mid-job
	close(gate)
	res := <-resCh
	if !res[0] || !res[1] {
		t.Errorf("mid-job expiry: ok=%v expired=%v, want true, true", res[0], res[1])
	}
	if got := ran.Load(); got != 1 {
		t.Errorf("ran %d tasks, want only the in-flight one", got)
	}
	st := ex.Stats()
	if st.TasksExpired != 4 {
		t.Errorf("TasksExpired = %d, want 4", st.TasksExpired)
	}
	if st.JobsActive != 0 || st.TasksQueued != 0 || st.TasksInFlight != 0 {
		t.Errorf("job did not retire cleanly: %+v", st)
	}
}

// TestExecutorCloseRace: Close racing concurrent run submissions and Stats
// calls neither deadlocks nor loses work — every run either completes all
// its tasks (ok=true) or reports ok=false having run none of them. Run
// with -race.
func TestExecutorCloseRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		ex := NewExecutor(2)
		var wg sync.WaitGroup
		for s := 0; s < 8; s++ {
			wg.Add(1)
			go func(lane Lane) {
				defer wg.Done()
				var ran atomic.Int32
				ok, _ := ex.run(lane, time.Time{}, 2, 3, func(int) { ran.Add(1) })
				if got := ran.Load(); ok && got != 3 {
					t.Errorf("accepted run completed %d/3 tasks", got)
				} else if !ok && got != 0 {
					t.Errorf("rejected run executed %d tasks", got)
				}
			}(Lane(s % int(NumLanes)))
		}
		// Two concurrent closers plus a Stats reader race the submitters.
		wg.Add(3)
		go func() { defer wg.Done(); ex.Close() }()
		go func() { defer wg.Done(); ex.Close() }()
		go func() { defer wg.Done(); _ = ex.Stats() }()
		wg.Wait()
		ex.Close() // triple close after the dust settles
	}
}
