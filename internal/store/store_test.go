package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pathquery/internal/engine"
	"pathquery/internal/graph"
)

// The recovery tests share one scripted mutation stream: mutation i
// appends one edge of a labeled chain. Applying the prefix of length j
// to a fresh engine is the never-crashed reference for "j mutations
// acked"; its epoch is 1+j (engine.New publishes the empty graph as
// epoch 1, each mutation publishes the next).

func nodeName(i int) string { return fmt.Sprintf("n%03d", i) }

func scriptMutation(i int) []engine.EdgeSpec {
	labels := []string{"a", "b", "c"}
	return []engine.EdgeSpec{{From: nodeName(i), Label: labels[i%len(labels)], To: nodeName(i + 1)}}
}

var scriptQueries = []string{"a", "a·b", "(a+b)*·c"}

// answers evaluates the script queries and renders node names — the
// byte-comparable signature of an engine state.
func answers(t *testing.T, e *engine.Engine) map[string][]string {
	t.Helper()
	out := make(map[string][]string, len(scriptQueries))
	for _, q := range scriptQueries {
		res, err := e.Evaluate(context.Background(), engine.Request{Query: q})
		if err != nil {
			t.Fatalf("evaluate %q: %v", q, err)
		}
		out[q] = res.Names()
	}
	return out
}

// reference builds the never-crashed engine after j scripted mutations.
func reference(t *testing.T, j int) *engine.Engine {
	t.Helper()
	e := engine.New(graph.New(nil), engine.Options{})
	for i := 0; i < j; i++ {
		if _, err := e.Mutate(scriptMutation(i)); err != nil {
			t.Fatalf("reference mutation %d: %v", i, err)
		}
	}
	return e
}

// requireState asserts that the engine recovered from st serves exactly
// the reference state after j mutations: same epoch, same answers.
func requireState(t *testing.T, st *GraphStore, j int) {
	t.Helper()
	e := engine.New(st.Graph(), engine.Options{Log: st})
	ref := reference(t, j)
	if got, want := e.Epoch(), ref.Epoch(); got != want {
		t.Fatalf("recovered epoch %d, want %d (j=%d)", got, want, j)
	}
	got, want := answers(t, e), answers(t, ref)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered answers %v, want %v (j=%d)", got, want, j)
	}
}

func openStore(t *testing.T, dir string, opt Options) *GraphStore {
	t.Helper()
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return st
}

// runScript drives j scripted mutations through a durable engine backed
// by st; it returns the number acked (an append fault stops the run).
func runScript(t *testing.T, st *GraphStore, j int) int {
	t.Helper()
	e := engine.New(st.Graph(), engine.Options{Log: st})
	for i := 0; i < j; i++ {
		if _, err := e.Mutate(scriptMutation(i)); err != nil {
			return i
		}
	}
	return j
}

func TestFreshStoreServesEpochOne(t *testing.T) {
	st := openStore(t, t.TempDir(), Options{})
	defer st.Close()
	requireState(t, st, 0)
}

func TestReopenRecoversExactState(t *testing.T) {
	for _, every := range []int{-1, 3, 1} { // no checkpoints, periodic, every mutation
		t.Run(fmt.Sprintf("checkpointEvery=%d", every), func(t *testing.T) {
			dir := t.TempDir()
			st := openStore(t, dir, Options{CheckpointEvery: every})
			if acked := runScript(t, st, 10); acked != 10 {
				t.Fatalf("acked %d mutations, want 10", acked)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2 := openStore(t, dir, Options{CheckpointEvery: every})
			defer st2.Close()
			requireState(t, st2, 10)
		})
	}
}

func TestReopenAndContinueMutating(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{CheckpointEvery: 4})
	e := engine.New(st.Graph(), engine.Options{Log: st})
	for i := 0; i < 6; i++ {
		if _, err := e.Mutate(scriptMutation(i)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	st = openStore(t, dir, Options{CheckpointEvery: 4})
	e = engine.New(st.Graph(), engine.Options{Log: st})
	for i := 6; i < 12; i++ {
		if _, err := e.Mutate(scriptMutation(i)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	st = openStore(t, dir, Options{CheckpointEvery: 4})
	defer st.Close()
	requireState(t, st, 12)
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{CheckpointEvery: 4})
	runScript(t, st, 8)
	stats := st.Stats()
	if stats.CheckpointEpoch == 0 {
		t.Fatalf("no checkpoint cut after 8 mutations at CheckpointEvery=4: %+v", stats)
	}
	if stats.WALRecords >= 8 {
		t.Fatalf("WAL not truncated at checkpoint: %+v", stats)
	}
	st.Close()
	st2 := openStore(t, dir, Options{})
	defer st2.Close()
	requireState(t, st2, 8)
}

// TestCrashBetweenCheckpointAndTruncate injects a truncate failure so
// the checkpoint installs but the WAL keeps every record; recovery must
// skip the pre-checkpoint prefix instead of double-applying it.
func TestCrashBetweenCheckpointAndTruncate(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	st := openStore(t, dir, Options{FS: ffs, CheckpointEvery: 4})
	e := engine.New(st.Graph(), engine.Options{Log: st})
	acked := 0
	for i := 0; i < 8; i++ {
		if i == 2 {
			// Mutation 2 publishes epoch 4, which is CheckpointEvery past the
			// base: its commit hook cuts the checkpoint and then fails the
			// WAL truncation (and kills the FS, as a crash would).
			ffs.FailTruncate()
		}
		if _, err := e.Mutate(scriptMutation(i)); err != nil {
			break
		}
		acked++
	}
	// Mutation 2 still acks — its WAL record was durable before the
	// checkpoint ran, and checkpoint trouble is not a mutation failure.
	// Mutation 3 then fails against the dead filesystem.
	if acked != 3 {
		t.Fatalf("acked %d mutations, want 3 (crash in post-publish checkpoint)", acked)
	}
	st.Close()
	// Disk state: checkpoint installed at epoch 4, WAL still holding
	// records for epochs 2..4. Recovery must skip the covered prefix.
	st2 := openStore(t, dir, Options{})
	defer st2.Close()
	if stats := st2.Stats(); stats.CheckpointEpoch != 4 {
		t.Fatalf("checkpoint epoch %d, want 4: %+v", stats.CheckpointEpoch, stats)
	}
	requireState(t, st2, 3)
}

// TestCrashAtCheckpointRename injects a rename failure into the second
// checkpoint: the new checkpoint is written and fsynced to its temporary
// file but never installed. Recovery must keep the first checkpoint,
// replay the WAL past it, and clear the temporary file.
func TestCrashAtCheckpointRename(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	st := openStore(t, dir, Options{FS: ffs, CheckpointEvery: 4})
	e := engine.New(st.Graph(), engine.Options{Log: st})
	acked := 0
	for i := 0; i < 8; i++ {
		if i == 6 {
			if stats := st.Stats(); stats.CheckpointEpoch != 4 {
				t.Fatalf("checkpoint epoch %d before the fault, want 4", stats.CheckpointEpoch)
			}
			// Mutation 6 publishes epoch 8, CheckpointEvery past the first
			// checkpoint: its commit hook cuts the second checkpoint, whose
			// rename fails (and kills the FS, as a crash would).
			ffs.FailRename()
		}
		if _, err := e.Mutate(scriptMutation(i)); err != nil {
			break
		}
		acked++
	}
	// Mutation 6 still acks — its WAL record was durable before the
	// checkpoint ran. Mutation 7 then fails against the dead filesystem.
	if acked != 7 || !ffs.Crashed() {
		t.Fatalf("acked %d mutations (crashed %v), want 7 and a crash in the checkpoint rename", acked, ffs.Crashed())
	}
	st.Close()
	tmp := filepath.Join(dir, checkpointFile+".tmp")
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("the failed rename left no temporary checkpoint: %v", err)
	}
	st2 := openStore(t, dir, Options{})
	defer st2.Close()
	if stats := st2.Stats(); stats.CheckpointEpoch != 4 {
		t.Fatalf("checkpoint epoch %d, want 4: %+v", stats.CheckpointEpoch, stats)
	}
	requireState(t, st2, 7)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("checkpoint.tmp survived recovery: %v", err)
	}
}

// TestKillAtEveryWriteOffset is the exhaustive kill-and-restart sweep:
// a crash is injected after every possible written byte across the whole
// scripted run (WAL appends and checkpoint writes alike). Whatever the
// crash point, reopening must recover a state identical to a reference
// engine that acked the same mutations — allowing exactly one logged-
// but-unacked trailing mutation (its record was durable; the ack was
// lost with the process), the standard redo contract.
func TestKillAtEveryWriteOffset(t *testing.T) {
	const n = 8
	for budget := int64(0); ; budget++ {
		ffs := NewFaultFS(nil)
		ffs.CrashAfterBytes(budget)
		dir := t.TempDir()
		st := openStore(t, dir, Options{FS: ffs, CheckpointEvery: 3})
		acked := runScript(t, st, n)
		crashed := ffs.Crashed()
		st.Close()

		st2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("budget %d: recovery failed: %v", budget, err)
		}
		j := int(st2.Epoch()) - 1
		if j < acked || j > acked+1 {
			t.Fatalf("budget %d: recovered %d mutations with %d acked", budget, j, acked)
		}
		requireState(t, st2, j)
		st2.Close()
		if !crashed {
			if acked != n {
				t.Fatalf("budget %d: no crash but only %d/%d acked", budget, acked, n)
			}
			return // the budget outlived the whole run: sweep complete
		}
	}
}

// TestBatchKillAtEveryWriteOffset is the group-commit analogue of
// TestKillAtEveryWriteOffset: every mutation carries a 3-edge batch —
// one WAL record, exactly what the engine's group commit writes for
// three coalesced Mutate calls. Whatever byte the crash lands on,
// recovery must land on a prefix of whole batches; a torn tail record
// must drop its entire batch, never apply it partially.
func TestBatchKillAtEveryWriteOffset(t *testing.T) {
	const n = 6
	batch := func(i int) []engine.EdgeSpec {
		out := make([]engine.EdgeSpec, 0, 3)
		for k := 0; k < 3; k++ {
			out = append(out, scriptMutation(3*i+k)...)
		}
		return out
	}
	refBatches := func(j int) *engine.Engine {
		e := engine.New(graph.New(nil), engine.Options{})
		for i := 0; i < j; i++ {
			if _, err := e.Mutate(batch(i)); err != nil {
				t.Fatalf("reference batch %d: %v", i, err)
			}
		}
		return e
	}
	for budget := int64(0); ; budget++ {
		ffs := NewFaultFS(nil)
		ffs.CrashAfterBytes(budget)
		dir := t.TempDir()
		st := openStore(t, dir, Options{FS: ffs, CheckpointEvery: 3})
		e := engine.New(st.Graph(), engine.Options{Log: st})
		acked := 0
		for i := 0; i < n; i++ {
			if _, err := e.Mutate(batch(i)); err != nil {
				break
			}
			acked++
		}
		crashed := ffs.Crashed()
		st.Close()

		st2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("budget %d: recovery failed: %v", budget, err)
		}
		j := int(st2.Epoch()) - 1
		if j < acked || j > acked+1 {
			t.Fatalf("budget %d: recovered %d batches with %d acked", budget, j, acked)
		}
		// The whole-batch prefix rule, asserted directly: a recovered
		// state always holds an edge count that is a multiple of the
		// batch size.
		if ne := st2.Graph().Current().NumEdges(); ne != 3*j {
			t.Fatalf("budget %d: recovered %d edges — not %d whole 3-edge batches", budget, ne, j)
		}
		e2 := engine.New(st2.Graph(), engine.Options{Log: st2})
		ref := refBatches(j)
		if got, want := e2.Epoch(), ref.Epoch(); got != want {
			t.Fatalf("budget %d: recovered epoch %d, want %d (j=%d)", budget, got, want, j)
		}
		if got, want := answers(t, e2), answers(t, ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("budget %d: recovered answers %v, want %v (j=%d)", budget, got, want, j)
		}
		st2.Close()
		if !crashed {
			if acked != n {
				t.Fatalf("budget %d: no crash but only %d/%d batches acked", budget, acked, n)
			}
			return // the budget outlived the whole run: sweep complete
		}
	}
}

// TestSyncFailureAbortsMutation injects fsync failures at each sync
// point of the run; the failing mutation must be reported to the
// caller, and recovery must land on the acked prefix (plus at most the
// one record whose bytes reached the disk without its fsync ack).
func TestSyncFailureAbortsMutation(t *testing.T) {
	// k reaches 8 so the sweep still covers mutation-time syncs now that
	// a fresh Open spends the first two sync points on directory fsyncs.
	for k := 1; k <= 8; k++ {
		ffs := NewFaultFS(nil)
		ffs.FailSync(k)
		dir := t.TempDir()
		st, err := Open(dir, Options{FS: ffs, CheckpointEvery: 3})
		if err != nil {
			continue // sync fault fired during open bookkeeping: nothing persisted
		}
		acked := runScript(t, st, 6)
		st.Close()
		st2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("sync fault %d: recovery failed: %v", k, err)
		}
		j := int(st2.Epoch()) - 1
		if j < acked || j > acked+1 {
			t.Fatalf("sync fault %d: recovered %d mutations with %d acked", k, j, acked)
		}
		requireState(t, st2, j)
		st2.Close()
	}
}

// TestTornWALTailTruncatedAtEveryOffset truncates the on-disk WAL at
// every offset after a clean run: every prefix must open warning-only
// (never an error) and serve exactly the mutations whose records
// survived whole.
func TestTornWALTailTruncatedAtEveryOffset(t *testing.T) {
	const n = 6
	src := t.TempDir()
	st := openStore(t, src, Options{CheckpointEvery: -1})
	if acked := runScript(t, st, n); acked != n {
		t.Fatal("clean run did not ack all mutations")
	}
	st.Close()
	wal, err := os.ReadFile(filepath.Join(src, walFile))
	if err != nil {
		t.Fatal(err)
	}
	// Frame boundaries, recomputed from the script.
	bounds := []int{0}
	var buf []byte
	for i := 0; i < n; i++ {
		buf = appendRecord(buf, Record{Epoch: uint64(2 + i), Edges: scriptMutation(i)})
		bounds = append(bounds, len(buf))
	}
	if len(wal) != bounds[n] {
		t.Fatalf("WAL is %d bytes, script encodes to %d", len(wal), bounds[n])
	}
	for off := 0; off < len(wal); off++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFile), wal[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		var warned bool
		st, err := Open(dir, Options{Logf: func(string, ...any) { warned = true }})
		if err != nil {
			t.Fatalf("offset %d: open failed: %v", off, err)
		}
		complete := 0
		for complete+1 < len(bounds) && bounds[complete+1] <= off {
			complete++
		}
		if torn := off != bounds[complete]; torn != warned {
			t.Fatalf("offset %d: torn=%v but warned=%v", off, torn, warned)
		}
		requireState(t, st, complete)
		st.Close()
	}
}

// TestCorruptMidLogRefused flips a byte inside the payload of the first
// record (with records after it): Open must fail with ErrCorrupt and
// name the offset — never panic, never silently truncate valid records.
func TestCorruptMidLogRefused(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{CheckpointEvery: -1})
	runScript(t, st, 4)
	st.Close()
	path := filepath.Join(dir, walFile)
	wal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wal[12] ^= 0x01 // inside the first record's payload (epoch field)
	if err := os.WriteFile(path, wal, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt mid-log open: got %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "offset 0") {
		t.Fatalf("error %q does not name the offset", err)
	}
}

// TestBitFlipInTailRecordIsTorn flips a byte in the final record's
// payload: indistinguishable from a torn write, so recovery truncates
// to the prefix with a warning.
func TestBitFlipInTailRecordIsTorn(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{CheckpointEvery: -1})
	runScript(t, st, 4)
	st.Close()
	path := filepath.Join(dir, walFile)
	wal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wal[len(wal)-1] ^= 0x80
	if err := os.WriteFile(path, wal, 0o644); err != nil {
		t.Fatal(err)
	}
	var warned bool
	st2, err := Open(dir, Options{Logf: func(string, ...any) { warned = true }})
	if err != nil {
		t.Fatalf("open after tail flip: %v", err)
	}
	defer st2.Close()
	if !warned {
		t.Fatal("tail flip recovered without a warning")
	}
	requireState(t, st2, 3)
}

// TestCorruptCheckpointRefused damages the checkpoint body: Open must
// fail with a checksum error rather than serve a half-valid graph.
func TestCorruptCheckpointRefused(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{CheckpointEvery: 2})
	runScript(t, st, 4)
	st.Close()
	path := filepath.Join(dir, checkpointFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt checkpoint open: got %v, want checksum error", err)
	}
}

// TestStaleCheckpointTmpIgnored plants a garbage checkpoint.tmp (a
// crash artifact of an interrupted checkpoint write): Open removes it
// and recovers from the WAL as if it never existed.
func TestStaleCheckpointTmpIgnored(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{CheckpointEvery: -1})
	runScript(t, st, 3)
	st.Close()
	if err := os.WriteFile(filepath.Join(dir, checkpointFile+".tmp"), []byte("half a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir, Options{})
	defer st2.Close()
	requireState(t, st2, 3)
	if _, err := os.Stat(filepath.Join(dir, checkpointFile+".tmp")); !os.IsNotExist(err) {
		t.Fatal("stale checkpoint.tmp not removed")
	}
}

// TestOversizedAppendRejected is the write-side MaxRecordLen guard: a
// mutation whose encoded payload exceeds the cap must fail before any
// byte reaches the WAL — were it acked, the next Open would refuse the
// fully-present record as corrupt and the store would be down for good.
func TestOversizedAppendRejected(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	engine.New(st.Graph(), engine.Options{Log: st}) // publishes epoch 1
	big := strings.Repeat("x", MaxRecordLen)
	if err := st.Append(2, []engine.EdgeSpec{{From: big, Label: "a", To: "b"}}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized append: %v, want ErrTooLarge", err)
	}
	// The WAL is untouched: the same epoch still appends normally, and a
	// reopen recovers exactly that state.
	if err := st.Append(2, scriptMutation(0)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2 := openStore(t, dir, Options{})
	defer st2.Close()
	requireState(t, st2, 1)
}

// TestFailedRollbackPoisonsStore injects a transient torn write whose
// rollback truncate also fails (disk trouble, not a crash — the
// filesystem stays alive): the store must refuse every later append
// with ErrFailed rather than ack records stacked behind the torn frame,
// which recovery would then reject as mid-log corruption. A reopen
// applies the torn-tail rule and recovers the acked prefix.
func TestFailedRollbackPoisonsStore(t *testing.T) {
	ffs := NewFaultFS(nil)
	dir := t.TempDir()
	st := openStore(t, dir, Options{FS: ffs, CheckpointEvery: -1})
	e := engine.New(st.Graph(), engine.Options{Log: st})
	if _, err := e.Mutate(scriptMutation(0)); err != nil {
		t.Fatal(err)
	}
	ffs.FailWriteShort(3)
	ffs.FailTruncateOnce()
	if _, err := e.Mutate(scriptMutation(1)); err == nil {
		t.Fatal("torn append acked")
	}
	if _, err := e.Mutate(scriptMutation(1)); err == nil {
		t.Fatal("append behind an unrolled torn frame acked")
	}
	if err := st.Append(3, scriptMutation(1)); !errors.Is(err, ErrFailed) {
		t.Fatalf("append on poisoned store: %v, want ErrFailed", err)
	}
	st.Close()
	st2 := openStore(t, dir, Options{})
	defer st2.Close()
	requireState(t, st2, 1)
}

// syncDirRecorder records which directories get fsynced.
type syncDirRecorder struct {
	FS
	mu   sync.Mutex
	dirs []string
}

func (r *syncDirRecorder) SyncDir(name string) error {
	r.mu.Lock()
	r.dirs = append(r.dirs, name)
	r.mu.Unlock()
	return r.FS.SyncDir(name)
}

// TestCreateSyncsDirectories asserts the power-loss half of durability:
// creating a store must fsync the parent directory (the new dir entry)
// and the directory itself (the new WAL file entry) — otherwise a power
// cut can drop the whole tenant with every acked record in it.
func TestCreateSyncsDirectories(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "tenant")
	rec := &syncDirRecorder{FS: OS}
	st := openStore(t, dir, Options{FS: rec})
	st.Close()
	synced := map[string]bool{}
	for _, d := range rec.dirs {
		synced[d] = true
	}
	if !synced[parent] {
		t.Errorf("new store dir: parent %s never fsynced (got %v)", parent, rec.dirs)
	}
	if !synced[dir] {
		t.Errorf("new WAL file: dir %s never fsynced (got %v)", dir, rec.dirs)
	}
	// Reopening an existing store creates nothing, so it syncs nothing.
	rec.dirs = nil
	st2 := openStore(t, dir, Options{FS: rec})
	st2.Close()
	if len(rec.dirs) != 0 {
		t.Errorf("reopen fsynced %v, want none", rec.dirs)
	}
}

func TestAppendEpochGapRejected(t *testing.T) {
	st := openStore(t, t.TempDir(), Options{})
	defer st.Close()
	engine.New(st.Graph(), engine.Options{Log: st}) // publishes epoch 1
	if err := st.Append(2, scriptMutation(0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(4, scriptMutation(1)); err == nil {
		t.Fatal("epoch gap accepted")
	}
	if err := st.Append(2, scriptMutation(1)); err == nil {
		t.Fatal("epoch replay accepted")
	}
}

func TestClosedStoreRefusesAppend(t *testing.T) {
	st := openStore(t, t.TempDir(), Options{})
	st.Close()
	if err := st.Append(2, scriptMutation(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on closed store: %v, want ErrClosed", err)
	}
}
