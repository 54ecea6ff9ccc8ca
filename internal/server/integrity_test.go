package server

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bindlock/internal/fault"
	"bindlock/internal/metrics"
	"bindlock/internal/satattack"
	"bindlock/internal/store"
)

// waitCached polls until the job's .res lands in cacheDir: the manager
// records Done just before the store Put, so the file can trail the
// terminal state by a beat.
func waitCached(t *testing.T, cacheDir, key string) string {
	t.Helper()
	path := filepath.Join(cacheDir, key+".res")
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(path); err == nil {
			return path
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("cached entry %s never reached disk", path)
	return ""
}

// sealedStore opens a sealed store over cacheDir under the node key at
// keyPath (generated on first use), the way bindlockd wires -cache-seal.
func sealedStore(t *testing.T, cacheDir, keyPath string, reg *metrics.Registry) (*store.Store, []byte) {
	t.Helper()
	key, err := store.LoadOrCreateKey(keyPath)
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.OpenWith(store.Options{Dir: cacheDir, SealKey: key}, reg)
	if err != nil {
		t.Fatal(err)
	}
	return s, key
}

// TestSealedCacheTamperRecompute is the satellite e2e for the result cache:
// flip one byte in a cached .res under a sealed store and the entry must
// never be served — the daemon recomputes to byte-identical bytes, counts
// the authentication failure, and re-seals the entry.
func TestSealedCacheTamperRecompute(t *testing.T) {
	req := fastAttack()
	dir := t.TempDir()
	cacheDir, keyPath := filepath.Join(dir, "cache"), filepath.Join(dir, "node.key")

	regA := metrics.New()
	storeA, _ := sealedStore(t, cacheDir, keyPath, regA)
	ref := submitWait(t, newManager(t, Config{Workers: 1, Store: storeA, Registry: regA}), req)

	// Flip one byte of the sealed entry on disk.
	path := waitCached(t, cacheDir, ref.Key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// A cold daemon on the same cache dir: the memory tier is empty, the
	// disk entry is poisoned. The submission must run, not serve tamper.
	regB := metrics.New()
	storeB, _ := sealedStore(t, cacheDir, keyPath, regB)
	final := submitWait(t, newManager(t, Config{Workers: 1, Store: storeB, Registry: regB}), req)
	if final.Cached {
		t.Fatal("tampered cache entry was served as a hit")
	}
	if !bytes.Equal(final.Result, ref.Result) {
		t.Fatalf("recompute diverged from the clean reference:\nref: %s\ngot: %s", ref.Result, final.Result)
	}
	if v, _ := regB.Snapshot().Counter("store_auth_fail_total"); v == 0 {
		t.Fatal("tamper went uncounted: store_auth_fail_total = 0")
	}

	// The recompute re-sealed the entry: a third cold store serves it. The
	// job is marked done before its Put reaches disk, and the poisoned file
	// was dropped on the failed unseal, so wait for the fresh write.
	waitCached(t, cacheDir, final.Key)
	regC := metrics.New()
	storeC, _ := sealedStore(t, cacheDir, keyPath, regC)
	if data, ok := storeC.Get(final.Key); !ok || !bytes.Equal(data, ref.Result) {
		t.Fatalf("re-sealed entry unreadable: ok=%v", ok)
	}
}

// TestSealedCheckpointTamperColdRestart is the satellite e2e for
// checkpoints: fault an attack mid-run so it leaves a MAC'd .ckpt, flip one
// byte of it, and the restarted daemon must reject the transcript, count
// it, cold-restart from iteration zero, and still produce the clean run's
// exact bytes.
func TestSealedCheckpointTamperColdRestart(t *testing.T) {
	req := Request{Kind: KindAttack, OperandBits: 4, Secret: 0x6B}
	ref := submitWait(t, newManager(t, Config{Workers: 1}), req)

	dir := t.TempDir()
	key, err := store.LoadOrCreateKey(filepath.Join(dir, "node.key"))
	if err != nil {
		t.Fatal(err)
	}
	ckptDir := filepath.Join(dir, "checkpoints")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}

	// Interrupt the first run mid-attack (a width-4 attack makes ~140
	// sat.solve calls, so every=50 fails inside the run with several
	// iterations checkpointed).
	inj := fault.New(fault.Plan{Seed: 1, FailEvery: map[string]uint64{"sat.solve": 50}})
	a := newManager(t, Config{
		Workers: 1, CheckpointDir: ckptDir, CheckpointKey: key,
		BaseContext: fault.NewContext(context.Background(), inj),
	})
	j, err := a.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if j = waitTerminal(t, a, j.ID); j.State != StateFailed {
		t.Fatalf("fault plan did not interrupt the attack: state %s", j.State)
	}
	ents, err := os.ReadDir(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("interrupted attack left %d checkpoint files, want 1", len(ents))
	}
	path := filepath.Join(ckptDir, ents[0].Name())

	// The checkpoint is keyed: it loads under the node key, and one flipped
	// MAC hex digit voids it.
	if _, err := satattack.LoadCheckpoint(path, key); err != nil {
		t.Fatalf("untampered checkpoint does not load: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(raw, []byte("hmac-sha256:"))
	if i < 0 {
		t.Fatal("checkpoint written without a MAC despite CheckpointKey")
	}
	raw[i+len("hmac-sha256:")] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart without faults: the tampered transcript must not be resumed.
	regB := metrics.New()
	b := newManager(t, Config{Workers: 1, CheckpointDir: ckptDir, CheckpointKey: key, Registry: regB})
	final := submitWait(t, b, req)
	if final.Resumed {
		t.Fatal("tampered checkpoint was resumed")
	}
	if v, _ := regB.Snapshot().Counter("resume_checkpoints_rejected_total"); v != 1 {
		t.Fatalf("resume_checkpoints_rejected_total = %d, want 1", v)
	}
	if !bytes.Equal(final.Result, ref.Result) {
		t.Fatalf("cold restart diverged from the clean reference:\nref: %s\ngot: %s", ref.Result, final.Result)
	}
	if ents, _ := os.ReadDir(ckptDir); len(ents) != 0 {
		t.Fatalf("%d checkpoint files left after the cold restart succeeded", len(ents))
	}
}

// TestServerChaosCorruption runs the corrupt= drill end to end, wired the
// way bindlockd wires -fault-plan with -cache-seal: every disk read comes
// back with one bit flipped under the seal, so every cache hit the restarted
// daemon would have served degrades to an authenticated recompute with
// byte-identical results.
func TestServerChaosCorruption(t *testing.T) {
	req := fastAttack()
	dir := t.TempDir()
	cacheDir, keyPath := filepath.Join(dir, "cache"), filepath.Join(dir, "node.key")

	// Populate the sealed cache cleanly.
	regA := metrics.New()
	storeA, _ := sealedStore(t, cacheDir, keyPath, regA)
	ref := submitWait(t, newManager(t, Config{Workers: 1, Store: storeA, Registry: regA}), req)
	waitCached(t, cacheDir, ref.Key)

	// Restart under a corrupt=1 plan: the injector damages the raw bytes of
	// every disk read, under the seal, exactly like failing media.
	plan, err := fault.Parse("seed=3,corrupt=1")
	if err != nil {
		t.Fatal(err)
	}
	regB := metrics.New()
	inj := fault.New(plan).WithRegistry(regB)
	key, err := store.LoadOrCreateKey(keyPath)
	if err != nil {
		t.Fatal(err)
	}
	storeB, err := store.OpenWith(store.Options{
		Dir: cacheDir, SealKey: key,
		ReadInterposer: func(b []byte) []byte { return inj.CorruptBytes("store.disk.get", b) },
	}, regB)
	if err != nil {
		t.Fatal(err)
	}
	b := newManager(t, Config{
		Workers: 1, Store: storeB, Registry: regB,
		BaseContext: fault.NewContext(context.Background(), inj),
	})
	final := submitWait(t, b, req)
	if final.Cached {
		t.Fatal("corrupted disk read served as a cache hit")
	}
	if !bytes.Equal(final.Result, ref.Result) {
		t.Fatalf("chaos recompute diverged from the clean reference:\nref: %s\ngot: %s", ref.Result, final.Result)
	}
	snap := regB.Snapshot()
	if v, _ := snap.Counter("fault_corruptions_total"); v == 0 {
		t.Fatal("corrupt=1 plan active but fault_corruptions_total never moved")
	}
	if v, _ := snap.Counter("store_auth_fail_total"); v == 0 {
		t.Fatal("injected corruption went undetected: store_auth_fail_total = 0")
	}
}

// TestKeyMaterialRedaction pins key hygiene on job records: every surface a
// record reaches (Get, List) carries Secret zeroed and SecretRedacted set —
// only the result payload holds the key material.
func TestKeyMaterialRedaction(t *testing.T) {
	m := newManager(t, Config{Workers: 1})
	req := fastAttack()
	j := submitWait(t, m, req)
	if j.Req.Secret != 0 || !j.Req.SecretRedacted {
		t.Fatalf("job record leaks the secret: secret=%#x redacted=%v", j.Req.Secret, j.Req.SecretRedacted)
	}
	var res AttackResult
	if err := json.Unmarshal(j.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Secret != req.Secret {
		t.Fatalf("result payload secret = %#x, want %#x", res.Secret, req.Secret)
	}
	for _, rec := range m.List() {
		if rec.Req.Secret != 0 || !rec.Req.SecretRedacted {
			t.Fatalf("List leaks the secret on job %s", rec.ID)
		}
	}
	if got, ok := m.Get(j.ID); !ok || got.Req.Secret != 0 {
		t.Fatalf("Get leaks the secret: ok=%v secret=%#x", ok, got.Req.Secret)
	}
}

// TestRandomSecretRequest pins the production key-material mode: the server
// draws the secret, the job runs on it, and the record redacts it; the mode
// is attack-only and refuses an explicit secret alongside.
func TestRandomSecretRequest(t *testing.T) {
	m := newManager(t, Config{Workers: 1})
	if _, err := m.Submit(Request{Kind: KindAttack, OperandBits: 3, Secret: 1, RandomSecret: true}); err == nil {
		t.Fatal("random_secret with an explicit secret accepted")
	}
	prep := fastPrepare(KindPrepare)
	prep.RandomSecret = true
	if _, err := m.Submit(prep); err == nil {
		t.Fatal("random_secret on a non-attack job accepted")
	}

	j := submitWait(t, m, Request{Kind: KindAttack, OperandBits: 3, RandomSecret: true})
	if j.Req.Secret != 0 || !j.Req.SecretRedacted {
		t.Fatalf("random-secret record leaks: secret=%#x redacted=%v", j.Req.Secret, j.Req.SecretRedacted)
	}
	var res AttackResult
	if err := json.Unmarshal(j.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Secret >= 1<<6 {
		t.Fatalf("drawn secret %#x exceeds 2*OperandBits bits", res.Secret)
	}
	if res.Key == "" {
		t.Fatal("attack on a drawn secret recovered no key")
	}
}

// TestCheckpointSweep pins the orphan GC: a .ckpt older than the retain age
// is removed at Start and counted; fresh checkpoints and non-checkpoint
// files are untouched; a negative retain age disables the sweep entirely.
func TestCheckpointSweep(t *testing.T) {
	ckptDir := t.TempDir()
	stale := time.Now().Add(-8 * 24 * time.Hour)
	old := filepath.Join(ckptDir, strings.Repeat("ab", 32)+".ckpt")
	fresh := filepath.Join(ckptDir, strings.Repeat("cd", 32)+".ckpt")
	bystander := filepath.Join(ckptDir, "notes.txt")
	for _, p := range []string{old, fresh, bystander} {
		if err := os.WriteFile(p, []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{old, bystander} {
		if err := os.Chtimes(p, stale, stale); err != nil {
			t.Fatal(err)
		}
	}

	reg := metrics.New()
	newManager(t, Config{Workers: 1, CheckpointDir: ckptDir, Registry: reg})
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Fatal("stale orphaned checkpoint survived the startup sweep")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("fresh checkpoint was swept")
	}
	if _, err := os.Stat(bystander); err != nil {
		t.Fatal("non-checkpoint file was swept")
	}
	if v, _ := reg.Snapshot().Counter("server_ckpt_gced_total"); v != 1 {
		t.Fatalf("server_ckpt_gced_total = %d, want 1", v)
	}

	// Negative retain age: sweeping is off, even 8-day orphans stay.
	dir2 := t.TempDir()
	orphan := filepath.Join(dir2, strings.Repeat("ef", 32)+".ckpt")
	if err := os.WriteFile(orphan, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(orphan, stale, stale); err != nil {
		t.Fatal(err)
	}
	newManager(t, Config{Workers: 1, CheckpointDir: dir2, CheckpointRetainAge: -1})
	if _, err := os.Stat(orphan); err != nil {
		t.Fatal("sweep ran despite a negative CheckpointRetainAge")
	}
}
