package satattack

import (
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"bindlock/internal/metrics"
	"bindlock/internal/netlist"
)

// A checkpoint preserves the expensive, externally-observable half of an
// attack: the oracle transcript. DIPs and their observed answers are the
// only inputs the attack takes from the outside world — everything else
// (CNF encoding, solver state, learned clauses) is a deterministic function
// of them. Resume therefore replays: the attack loop re-runs from iteration
// zero, asserting each freshly solved DIP matches the recorded one and
// substituting the recorded answer for a live oracle query. Once the
// transcript is exhausted, live querying continues seamlessly. Because the
// solver is deterministic and sees the identical clause sequence, the
// continuation — key, iteration count, deterministic metrics — is
// bit-identical to an uninterrupted run, without serialising any solver
// internals. Re-solving is cheap; oracle queries against a flaky physical
// IC are the resource checkpoints exist to protect.

// CheckpointVersion is the format version written by Save and required by
// LoadCheckpoint. Version 2 guards the miter's at-least-one-difference
// clause behind an activation literal (the warm-solver refactor) — a version
// 1 transcript would replay against a different clause stream and could
// diverge mid-resume, so it is rejected up front rather than part-replayed.
// Version 3 adds the integrity envelope (Digest always, MAC when keyed): a
// bit-rotted or attacker-modified transcript is detected at load and
// treated as a checkpoint mismatch — cold restart — never part-replayed
// into a silently divergent resume.
const CheckpointVersion = 3

// ErrCheckpointMismatch reports a checkpoint that does not belong to the
// attack being resumed: wrong circuit shape, or a replayed iteration solved
// a DIP different from the recorded one.
var ErrCheckpointMismatch = errors.New("satattack: checkpoint mismatch")

// Checkpoint is the durable state of a partially completed attack. Bit
// vectors are '0'/'1' strings, LSB first (index i of the slice is byte i of
// the string), keeping the JSON diffable and platform-independent.
type Checkpoint struct {
	Version   int    `json:"version"`
	Circuit   string `json:"circuit"`
	InputBits int    `json:"input_bits"`
	KeyBits   int    `json:"key_bits"`
	// Iterations is the number of completed DIP iterations; DIPs and
	// Answers each hold exactly that many entries, in discovery order.
	Iterations int `json:"iterations"`
	// OracleCalls counts physical oracle invocations so far — retries and
	// votes included. A resumed run seeds its querier with it, and a fault
	// injector wrapped around the oracle is Seek'd to it, so the injected
	// fault schedule stays aligned with an uninterrupted run.
	OracleCalls uint64   `json:"oracle_calls"`
	DIPs        []string `json:"dips"`
	Answers     []string `json:"answers"`
	// Solver names the sat backend that produced the transcript ("" means
	// the default backend, for transcripts written before the field existed).
	// Different engines walk different DIP sequences, so resuming under
	// another backend is rejected.
	Solver string `json:"solver,omitempty"`
	// CycleBreak records whether the transcript was produced with CycSAT
	// cycle-breaking constraints conjoined (Options.CycleBreak). The
	// constraints change the miter's clause stream and therefore the DIP
	// sequence, so a transcript never replays across modes. omitempty keeps
	// pre-cyclic version-3 files loading: they were all written with the
	// flag effectively false.
	CycleBreak bool `json:"cycle_break,omitempty"`
	// Metrics optionally embeds the registry snapshot at save time, for
	// post-mortem inspection; resume does not consume it.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
	// Digest is "sha256:<hex>" over the canonical encoding of the
	// checkpoint with Digest and MAC cleared. Always written; detects
	// accidental corruption (bit rot, torn bytes) even for unkeyed loads.
	Digest string `json:"digest,omitempty"`
	// MAC is "hmac-sha256:<hex>" over the same canonical bytes, keyed by
	// the node checkpoint key. Written when saving with a key; a keyed
	// load REQUIRES a valid MAC, so an attacker who can rewrite the file
	// (and recompute the digest) still cannot forge a transcript without
	// the key.
	MAC string `json:"mac,omitempty"`
}

// digestPrefix / macPrefix name the algorithms in the envelope fields, so a
// future rotation is a new prefix rather than a silent format change.
const (
	digestPrefix = "sha256:"
	macPrefix    = "hmac-sha256:"
)

// canonicalBytes returns the encoding the integrity envelope signs: compact
// JSON of the checkpoint with both envelope fields cleared.
func (cp *Checkpoint) canonicalBytes() ([]byte, error) {
	c := *cp
	c.Digest, c.MAC = "", ""
	data, err := json.Marshal(&c)
	if err != nil {
		return nil, fmt.Errorf("satattack: checkpoint encode: %w", err)
	}
	return data, nil
}

// seal fills the integrity envelope: Digest always, MAC when key is non-nil.
func (cp *Checkpoint) seal(key []byte) error {
	canon, err := cp.canonicalBytes()
	if err != nil {
		return err
	}
	sum := sha256.Sum256(canon)
	cp.Digest = digestPrefix + hex.EncodeToString(sum[:])
	cp.MAC = ""
	if len(key) > 0 {
		mac := hmac.New(sha256.New, key)
		mac.Write(canon)
		cp.MAC = macPrefix + hex.EncodeToString(mac.Sum(nil))
	}
	return nil
}

// verifyEnvelope checks the integrity envelope against the canonical bytes.
// Unkeyed: the digest must verify (tolerating pre-envelope files only via
// the version gate, which already rejected them). Keyed: a valid MAC under
// the key is additionally REQUIRED — a missing or wrong MAC is tamper, not
// a soft downgrade. Every failure wraps ErrCheckpointMismatch.
func (cp *Checkpoint) verifyEnvelope(key []byte) error {
	canon, err := cp.canonicalBytes()
	if err != nil {
		return err
	}
	digest, ok := cutPrefix(cp.Digest, digestPrefix)
	if !ok {
		return fmt.Errorf("%w: missing or malformed digest %q", ErrCheckpointMismatch, cp.Digest)
	}
	sum := sha256.Sum256(canon)
	want, err := hex.DecodeString(digest)
	if err != nil || subtle.ConstantTimeCompare(sum[:], want) != 1 {
		return fmt.Errorf("%w: digest verification failed (corrupt checkpoint)", ErrCheckpointMismatch)
	}
	if len(key) == 0 {
		return nil
	}
	tag, ok := cutPrefix(cp.MAC, macPrefix)
	if !ok {
		return fmt.Errorf("%w: keyed load requires an hmac-sha256 MAC, got %q", ErrCheckpointMismatch, cp.MAC)
	}
	mac := hmac.New(sha256.New, key)
	mac.Write(canon)
	got, err := hex.DecodeString(tag)
	if err != nil || !hmac.Equal(mac.Sum(nil), got) {
		return fmt.Errorf("%w: MAC verification failed (tampered checkpoint)", ErrCheckpointMismatch)
	}
	return nil
}

func cutPrefix(s, prefix string) (string, bool) {
	if len(s) < len(prefix) || s[:len(prefix)] != prefix {
		return "", false
	}
	return s[len(prefix):], true
}

// LoadCheckpoint reads and validates a checkpoint file written by Save.
// key, when non-nil, is the node checkpoint key: the file's MAC must then
// verify, so a tampered transcript cold-restarts instead of resuming.
func LoadCheckpoint(path string, key []byte) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("satattack: load checkpoint: %w", err)
	}
	cp, err := DecodeCheckpoint(data, key)
	if err != nil {
		return nil, fmt.Errorf("satattack: load checkpoint %s: %w", path, err)
	}
	return cp, nil
}

// DecodeCheckpoint parses and validates checkpoint bytes (see
// LoadCheckpoint). It is the seam for callers that interpose on the raw
// read — the server routes checkpoint bytes through the fault injector's
// corruption site before decoding. Integrity, version and shape failures
// all wrap ErrCheckpointMismatch.
func DecodeCheckpoint(data []byte, key []byte) (*Checkpoint, error) {
	cp := &Checkpoint{}
	if err := json.Unmarshal(data, cp); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointMismatch, err)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrCheckpointMismatch, cp.Version, CheckpointVersion)
	}
	if err := cp.verifyEnvelope(key); err != nil {
		return nil, err
	}
	if len(cp.DIPs) != cp.Iterations || len(cp.Answers) != cp.Iterations {
		return nil, fmt.Errorf("%w: %d iterations but %d DIPs / %d answers",
			ErrCheckpointMismatch, cp.Iterations, len(cp.DIPs), len(cp.Answers))
	}
	for i := range cp.DIPs {
		if _, err := stringToBits(cp.DIPs[i]); err != nil {
			return nil, fmt.Errorf("%w: DIP %d: %v", ErrCheckpointMismatch, i, err)
		}
		if _, err := stringToBits(cp.Answers[i]); err != nil {
			return nil, fmt.Errorf("%w: answer %d: %v", ErrCheckpointMismatch, i, err)
		}
	}
	return cp, nil
}

// Save writes the checkpoint atomically: JSON to a temp file in the target
// directory, fsync'd, then renamed over path. A crash mid-write leaves
// either the previous checkpoint or the new one, never a torn file. The
// integrity envelope is (re)computed on every save; key, when non-nil,
// additionally MACs the transcript (see Digest/MAC).
func (cp *Checkpoint) Save(path string, key []byte) error {
	if err := cp.seal(key); err != nil {
		return err
	}
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return fmt.Errorf("satattack: save checkpoint: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("satattack: save checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("satattack: save checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("satattack: save checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("satattack: save checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("satattack: save checkpoint: %w", err)
	}
	return nil
}

// validateFor rejects a checkpoint recorded against a different circuit, a
// different solver backend or a different cycle-constraint mode before the
// attack spends any work on it.
func (cp *Checkpoint) validateFor(locked *netlist.Circuit, solver string, cycleBreak bool) error {
	if cp.Circuit != locked.Name || cp.InputBits != len(locked.Inputs) || cp.KeyBits != len(locked.Keys) {
		return fmt.Errorf("%w: checkpoint is for %q (%d inputs, %d keys), attack target is %q (%d inputs, %d keys)",
			ErrCheckpointMismatch, cp.Circuit, cp.InputBits, cp.KeyBits,
			locked.Name, len(locked.Inputs), len(locked.Keys))
	}
	if normalizeSolver(cp.Solver) != normalizeSolver(solver) {
		return fmt.Errorf("%w: checkpoint transcript was produced by solver backend %q, attack is using %q",
			ErrCheckpointMismatch, normalizeSolver(cp.Solver), normalizeSolver(solver))
	}
	if cp.CycleBreak != cycleBreak {
		return fmt.Errorf("%w: checkpoint transcript recorded with cycle_break=%v, attack is running with %v",
			ErrCheckpointMismatch, cp.CycleBreak, cycleBreak)
	}
	return nil
}

// bitsToString renders a bit vector as a '0'/'1' string, LSB first.
func bitsToString(bits []bool) string {
	b := make([]byte, len(bits))
	for i, v := range bits {
		if v {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

func stringToBits(s string) ([]bool, error) {
	bits := make([]bool, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '1':
			bits[i] = true
		case '0':
		default:
			return nil, fmt.Errorf("bit %d is %q, want '0' or '1'", i, s[i])
		}
	}
	return bits, nil
}

func encodeBitVectors(vs [][]bool) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = bitsToString(v)
	}
	return out
}

func equalBits(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
