package satattack

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"os"
	"path/filepath"

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
//
// On disk a checkpoint is an append-only journal of JSON lines: a header
// (version, circuit shape, solver, cycle_break), then one record per DIP
// (the DIP, its answer, the cumulative oracle calls after it). Every line
// carries a sha256 digest chained over the previous line's digest and its
// own canonical compact body, and, under a node key, an HMAC chained the
// same way. An attack creates the file once and then appends only the
// records each checkpoint write adds: one write and one fsync per write,
// whatever the transcript length.

// CheckpointVersion is the format version written by Save and required by
// LoadCheckpoint. Version 2 guards the miter's at-least-one-difference
// clause behind an activation literal (the warm-solver refactor) — a version
// 1 transcript would replay against a different clause stream and could
// diverge mid-resume, so it is rejected up front rather than part-replayed.
// Version 3 added a whole-document integrity envelope. Version 4 is the
// append-only journal with per-line digest and MAC chains: a bit-rotted or
// attacker-modified line is detected at load and treated as a checkpoint
// mismatch — cold restart — never part-replayed into a silently divergent
// resume.
const CheckpointVersion = 4

// ErrCheckpointMismatch reports a checkpoint that does not belong to the
// attack being resumed: wrong circuit shape, or a replayed iteration solved
// a DIP different from the recorded one.
var ErrCheckpointMismatch = errors.New("satattack: checkpoint mismatch")

// Checkpoint is the durable state of a partially completed attack. Bit
// vectors are '0'/'1' strings, LSB first (index i of the slice is byte i of
// the string).
type Checkpoint struct {
	Version   int
	Circuit   string
	InputBits int
	KeyBits   int
	// Iterations is the number of completed DIP iterations; DIPs, Answers
	// and Calls each hold exactly that many entries, in discovery order.
	Iterations int
	// OracleCalls counts physical oracle invocations so far — retries and
	// votes included; it is the last entry of Calls (0 with no DIPs). A
	// resumed run seeds its querier with it, and a fault injector wrapped
	// around the oracle is Seek'd to it, so the injected fault schedule
	// stays aligned with an uninterrupted run.
	OracleCalls uint64
	DIPs        []string
	Answers     []string
	// Calls holds the cumulative oracle calls after each DIP was answered,
	// so any prefix of the transcript carries its own OracleCalls.
	Calls []uint64
	// Solver names the sat backend that produced the transcript ("" means
	// the default backend). Different engines walk different DIP sequences,
	// so resuming under another backend is rejected.
	Solver string
	// CycleBreak records whether the transcript was produced with CycSAT
	// cycle-breaking constraints conjoined (Options.CycleBreak). The
	// constraints change the miter's clause stream and therefore the DIP
	// sequence, so a transcript never replays across modes.
	CycleBreak bool
}

// lineSeal is the integrity suffix of every journal line. Digest is
// "sha256:<hex>" of the previous line's digest followed by this line's
// canonical body (the line with both fields cleared, compact JSON); MAC is
// "hmac-sha256:<hex>" of the previous line's MAC and the same body under
// the node key. The chains bind each line to everything before it, so an
// edited, deleted, reordered or spliced line fails to verify.
type lineSeal struct {
	Digest string `json:"digest,omitempty"`
	MAC    string `json:"mac,omitempty"`
}

// journalHeader is a journal's first line.
type journalHeader struct {
	Version    int    `json:"version"`
	Circuit    string `json:"circuit"`
	InputBits  int    `json:"input_bits"`
	KeyBits    int    `json:"key_bits"`
	Solver     string `json:"solver,omitempty"`
	CycleBreak bool   `json:"cycle_break,omitempty"`
	lineSeal
}

// journalRecord is one DIP iteration.
type journalRecord struct {
	DIP         string `json:"dip"`
	Answer      string `json:"answer"`
	OracleCalls uint64 `json:"oracle_calls"`
	lineSeal
}

// digestPrefix / macPrefix name the algorithms in the seal fields, so a
// future rotation is a new prefix rather than a silent format change.
const (
	digestPrefix = "sha256:"
	macPrefix    = "hmac-sha256:"
)

// chain is the running state of a journal's integrity chains: the last
// line's digest and, when keyed, its MAC.
type chain struct {
	key         []byte
	digest, mac []byte
}

func link(h hash.Hash, prev, body []byte) []byte {
	h.Write(prev)
	h.Write(body)
	return h.Sum(nil)
}

// seal clears v's embedded seal s and returns the seal v's canonical body
// earns as the chain's next line, advancing the chain past it.
func (c *chain) seal(v any, s *lineSeal) lineSeal {
	*s = lineSeal{}
	body, _ := json.Marshal(v) // cannot fail: strings, integers and bools only
	c.digest = link(sha256.New(), c.digest, body)
	out := lineSeal{Digest: digestPrefix + hex.EncodeToString(c.digest)}
	if len(c.key) > 0 {
		c.mac = link(hmac.New(sha256.New, c.key), c.mac, body)
		out.MAC = macPrefix + hex.EncodeToString(c.mac)
	}
	return out
}

// appendLine seals v, whose embedded seal is s, and appends it to buf as
// the chain's next line.
func (c *chain) appendLine(buf []byte, v any, s *lineSeal) []byte {
	*s = c.seal(v, s)
	line, _ := json.Marshal(v)
	return append(append(buf, line...), '\n')
}

// verify checks the seal s that v was read with against the chain's next
// line. Unkeyed, the digest must verify; keyed, a valid MAC is additionally
// REQUIRED — a missing or wrong MAC is tamper, not a soft downgrade.
func (c *chain) verify(v any, s *lineSeal) error {
	got := *s
	want := c.seal(v, s)
	if got.Digest != want.Digest {
		return errors.New("digest verification failed (corrupt checkpoint)")
	}
	if len(c.key) > 0 && !hmac.Equal([]byte(got.MAC), []byte(want.MAC)) {
		return errors.New("MAC verification failed (tampered checkpoint, or written without the node key)")
	}
	return nil
}

// LoadCheckpoint reads and validates a checkpoint file written by Save or
// a checkpointing attack. key, when non-nil, is the node checkpoint key:
// every line's MAC must then verify, so a tampered transcript cold-restarts
// instead of resuming.
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
// corruption site before decoding. An unterminated final line that fails
// to verify is a torn append and is dropped: the checkpoint is its verified
// prefix. Any newline-terminated line that fails, and any integrity,
// version or shape failure, wraps ErrCheckpointMismatch.
func DecodeCheckpoint(data []byte, key []byte) (*Checkpoint, error) {
	c := chain{key: key}
	var cp *Checkpoint
	for n := 1; len(data) > 0; n++ {
		line, rest, terminated := bytes.Cut(data, []byte{'\n'})
		data = rest
		var err error
		if cp == nil {
			cp, err = c.openHeader(line)
		} else {
			err = c.openRecord(line, cp)
		}
		if err != nil {
			if !terminated {
				break // torn append: keep the verified prefix
			}
			return nil, fmt.Errorf("%w: line %d: %v", ErrCheckpointMismatch, n, err)
		}
	}
	if cp == nil {
		return nil, fmt.Errorf("%w: no complete header line", ErrCheckpointMismatch)
	}
	return cp, nil
}

func (c *chain) openHeader(line []byte) (*Checkpoint, error) {
	var h journalHeader
	if err := json.Unmarshal(line, &h); err != nil {
		return nil, err
	}
	if h.Version != CheckpointVersion {
		return nil, fmt.Errorf("version %d, want %d", h.Version, CheckpointVersion)
	}
	if err := c.verify(&h, &h.lineSeal); err != nil {
		return nil, err
	}
	return &Checkpoint{
		Version: h.Version, Circuit: h.Circuit, InputBits: h.InputBits, KeyBits: h.KeyBits,
		Solver: h.Solver, CycleBreak: h.CycleBreak,
	}, nil
}

func (c *chain) openRecord(line []byte, cp *Checkpoint) error {
	var r journalRecord
	if err := json.Unmarshal(line, &r); err != nil {
		return err
	}
	if err := c.verify(&r, &r.lineSeal); err != nil {
		return err
	}
	if _, err := stringToBits(r.DIP); err != nil || len(r.DIP) != cp.InputBits {
		return fmt.Errorf("DIP %q is not a %d-bit vector", r.DIP, cp.InputBits)
	}
	if _, err := stringToBits(r.Answer); err != nil {
		return fmt.Errorf("answer: %v", err)
	}
	cp.Iterations++
	cp.DIPs = append(cp.DIPs, r.DIP)
	cp.Answers = append(cp.Answers, r.Answer)
	cp.Calls = append(cp.Calls, r.OracleCalls)
	cp.OracleCalls = r.OracleCalls
	return nil
}

// journal is a checkpoint file an attack appends to. Lines are sealed into
// pending as the transcript grows; flush makes them durable with one write
// and one fsync, the first flush creating the file.
type journal struct {
	chain
	pending []byte
	unsaved int // records in pending
	f       *os.File
}

// newJournal seals cp's header and every record it already holds.
func newJournal(cp *Checkpoint, key []byte) (*journal, error) {
	n := cp.Iterations
	if len(cp.DIPs) != n || len(cp.Answers) != n || len(cp.Calls) != n ||
		(n > 0 && cp.Calls[n-1] != cp.OracleCalls) || (n == 0 && cp.OracleCalls != 0) {
		return nil, fmt.Errorf("%w: %d iterations but %d DIPs / %d answers / %d call counts ending at %d oracle calls",
			ErrCheckpointMismatch, n, len(cp.DIPs), len(cp.Answers), len(cp.Calls), cp.OracleCalls)
	}
	j := &journal{chain: chain{key: key}}
	h := journalHeader{
		Version: cp.Version, Circuit: cp.Circuit, InputBits: cp.InputBits, KeyBits: cp.KeyBits,
		Solver: cp.Solver, CycleBreak: cp.CycleBreak,
	}
	j.pending = j.appendLine(j.pending, &h, &h.lineSeal)
	for i := range cp.DIPs {
		j.add(cp.DIPs[i], cp.Answers[i], cp.Calls[i])
	}
	return j, nil
}

// add seals one record into pending.
func (j *journal) add(dip, answer string, calls uint64) {
	r := journalRecord{DIP: dip, Answer: answer, OracleCalls: calls}
	j.pending = j.appendLine(j.pending, &r, &r.lineSeal)
	j.unsaved++
}

// flush writes pending to path and fsyncs it. The first flush creates the
// file atomically — temp file, fsync, rename, directory fsync — so a crash
// leaves either the previous file or the new one, never a torn header; the
// file then stays open and later flushes append to it. A crash mid-append
// leaves an unterminated last line, which loading drops.
func (j *journal) flush(path string) error {
	if err := j.write(path); err != nil {
		return fmt.Errorf("satattack: save checkpoint: %w", err)
	}
	j.pending, j.unsaved = j.pending[:0], 0
	return nil
}

func (j *journal) write(path string) error {
	if j.f != nil {
		if _, err := j.f.Write(j.pending); err != nil {
			return err
		}
		return j.f.Sync()
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(j.pending)
	if err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	j.f = tmp
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// close releases the journal's file, if a flush created one.
func (j *journal) close() error {
	if j.f == nil {
		return nil
	}
	return j.f.Close()
}

// Save writes the checkpoint as a fresh journal, atomically: a crash leaves
// either the previous file at path or the new one. key, when non-nil,
// additionally MACs every line.
func (cp *Checkpoint) Save(path string, key []byte) error {
	j, err := newJournal(cp, key)
	if err != nil {
		return fmt.Errorf("satattack: save checkpoint: %w", err)
	}
	err = j.flush(path)
	if cerr := j.close(); err == nil {
		err = cerr
	}
	return err
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
