// Package server is the serving layer of the repository: an asynchronous job
// manager fronted by a small HTTP API, turning the one-shot CLI workloads —
// prepare, bind, lock, attack, codesign — into submit/poll/cancel jobs with
// per-job deadlines, progress telemetry, cancellation with partial results,
// checkpointing of in-flight attacks, and a content-addressed result cache
// (internal/store) that serves repeated identical requests byte-identically
// without recomputing.
//
// The package composes the substrate the earlier layers built: worker slots
// run on internal/parallel, job deadlines and cancellation ride
// context.Context into the compute stack and come back as internal/interrupt
// typed errors with partial results, per-job progress events arrive through
// internal/progress hooks, counters land in a server-owned internal/metrics
// registry exported at /metrics, and interrupted attacks persist their oracle
// transcript through the internal/satattack checkpoint path so a restarted
// server resumes them bit-identically.
package server

import (
	"fmt"

	"bindlock"
	"bindlock/internal/keymat"
	"bindlock/internal/sat"
	"bindlock/internal/store"
)

// Request is a job submission, expressed in facade terms: a workload kind
// plus the same knobs the bindlock package's With* options and the CLI tools
// expose. Unset numeric fields take the facade defaults; see resolve.
type Request struct {
	// Kind selects the workload: "prepare", "bind", "lock", "attack" or
	// "codesign".
	Kind string `json:"kind"`

	// Source is kernel source in the frontend language. Exactly one of
	// Source and Bench must be set for the prepare-family kinds.
	Source string `json:"source,omitempty"`
	// Bench names one of the 11 MediaBench-derived kernels.
	Bench string `json:"bench,omitempty"`
	// MaxFUs is the per-class FU allocation bound (default 2).
	MaxFUs int `json:"max_fus,omitempty"`
	// Samples is the workload length (default 600).
	Samples int `json:"samples,omitempty"`
	// Workload selects the synthetic workload family: "uniform",
	// "image-blocks", "audio", "bitstream" or "sensor-noise". Empty means
	// the benchmark's paper-matched family, or "uniform" for Source.
	Workload string `json:"workload,omitempty"`
	// Seed is the workload generator seed (default 1; 0 means default).
	Seed int64 `json:"seed,omitempty"`

	// Class is the FU class to bind or lock: "adder" (default) or
	// "multiplier".
	Class string `json:"class,omitempty"`
	// Binder selects the binding algorithm for "bind" jobs:
	// "obfuscation-aware" (default), "area", "power" or "random".
	Binder string `json:"binder,omitempty"`
	// LockedFUs is the locked FU count |L| (default 1).
	LockedFUs int `json:"locked_fus,omitempty"`
	// MintermsPerFU is the locked minterm count per FU |M_l| (default 1).
	MintermsPerFU int `json:"minterms_per_fu,omitempty"`
	// Candidates is the candidate-pool size the co-design search draws from
	// (default 10; "codesign" only).
	Candidates int `json:"candidates,omitempty"`

	// OperandBits is the attacked adder's operand width (default 3,
	// maximum 8; "attack" only).
	OperandBits int `json:"operand_bits,omitempty"`
	// Secret is the SFLL-protected input minterm; must fit 2*OperandBits
	// bits ("attack" only). Supplying one explicitly is reproducible mode;
	// production traffic should set RandomSecret instead.
	Secret uint64 `json:"secret,omitempty"`
	// RandomSecret draws the secret from crypto/rand at submission —
	// per-request key material with no caller-visible seed, the production
	// default for real locking keys ("attack" only; mutually exclusive
	// with an explicit Secret). The drawn value enters the fingerprint, so
	// random jobs never dedup or share cache entries with each other, and
	// it is redacted from the job record: only the result payload carries
	// it.
	RandomSecret bool `json:"random_secret,omitempty"`
	// SecretRedacted is set on served job records whose Secret field was
	// zeroed for key hygiene; it is ignored on submission.
	SecretRedacted bool `json:"secret_redacted,omitempty"`
	// Solver names the sat backend the attack solves with ("" means the
	// default, "cdcl"; "attack" only). It is part of the cache fingerprint:
	// different engines walk different DIP sequences, so their results are
	// never served interchangeably.
	Solver string `json:"solver,omitempty"`
	// Scheme selects the attacked locking scheme: "sfll" (default; SFLL-HD(0)
	// on the secret minterm) or "cyclic" (SRCLock-style feedback obfuscation,
	// attacked with CycSAT cycle-breaking constraints). "attack" only.
	Scheme string `json:"scheme,omitempty"`
	// CycleEdges is the key-programmed feedback MUX count of a cyclic lock
	// (default 2, maximum 8; scheme "cyclic" only).
	CycleEdges int `json:"cycle_edges,omitempty"`
	// CycleDecoys is the acyclic decoy MUX count of a cyclic lock
	// (default 2, maximum 8; scheme "cyclic" only).
	CycleDecoys int `json:"cycle_decoys,omitempty"`
}

// The job kinds.
const (
	KindPrepare  = "prepare"
	KindBind     = "bind"
	KindLock     = "lock"
	KindAttack   = "attack"
	KindCodesign = "codesign"
)

// Kinds lists every job kind the server accepts.
func Kinds() []string {
	return []string{KindPrepare, KindBind, KindLock, KindAttack, KindCodesign}
}

// The attack schemes.
const (
	SchemeSFLL   = "sfll"
	SchemeCyclic = "cyclic"
)

// AttackSchemes lists every locking scheme attack jobs accept.
func AttackSchemes() []string {
	return []string{SchemeSFLL, SchemeCyclic}
}

// BadFieldError rejects a submission over one enumerated field, carrying the
// offending value and the supported ones so the HTTP layer can serve a
// machine-readable 400 instead of a bare message.
type BadFieldError struct {
	Field     string   `json:"field"`
	Got       string   `json:"got"`
	Supported []string `json:"supported"`
}

func (e *BadFieldError) Error() string {
	return fmt.Sprintf("unknown %s %q (one of %v)", e.Field, e.Got, e.Supported)
}

// workloads maps request names onto facade workload kinds.
var workloads = map[string]bindlock.WorkloadKind{
	"uniform":      bindlock.WorkloadUniform,
	"image-blocks": bindlock.WorkloadImageBlocks,
	"audio":        bindlock.WorkloadAudio,
	"bitstream":    bindlock.WorkloadBitstream,
	"sensor-noise": bindlock.WorkloadSensorNoise,
}

// resolved is a validated request with every default filled in and every
// string field parsed, so fingerprinting and execution work from one
// unambiguous value.
type resolved struct {
	Request
	gen   bindlock.WorkloadKind
	class bindlock.Class
}

// usesDesign reports whether the kind runs the prepare flow first.
func (r *resolved) usesDesign() bool { return r.Kind != KindAttack }

// resolve validates req and fills in defaults. The returned value is
// self-contained: two requests that resolve identically are the same job.
func resolve(req Request) (*resolved, error) {
	r := &resolved{Request: req}
	switch r.Kind {
	case KindPrepare, KindBind, KindLock, KindAttack, KindCodesign:
	case "":
		return nil, fmt.Errorf("kind is required (one of %v)", Kinds())
	default:
		return nil, &BadFieldError{Field: "kind", Got: r.Kind, Supported: Kinds()}
	}

	if r.Kind == KindAttack {
		if r.Source != "" || r.Bench != "" {
			return nil, fmt.Errorf("attack jobs take operand_bits and secret, not source/bench")
		}
		if r.OperandBits == 0 {
			r.OperandBits = 3
		}
		if r.OperandBits < 1 || r.OperandBits > 8 {
			return nil, fmt.Errorf("operand_bits %d outside [1, 8]", r.OperandBits)
		}
		switch r.Scheme {
		case "", SchemeSFLL:
			r.Scheme = SchemeSFLL
		case SchemeCyclic:
		default:
			return nil, &BadFieldError{Field: "scheme", Got: r.Scheme, Supported: AttackSchemes()}
		}
		if r.Scheme == SchemeCyclic {
			// A cyclic lock's key is the acyclic MUX selection the seeded
			// placement produces; there is no secret minterm to protect.
			if r.Secret != 0 || r.RandomSecret {
				return nil, fmt.Errorf("secret and random_secret apply to sfll attacks only")
			}
			r.SecretRedacted = false
			if r.CycleEdges == 0 {
				r.CycleEdges = 2
			}
			if r.CycleEdges < 1 || r.CycleEdges > 8 {
				return nil, fmt.Errorf("cycle_edges %d outside [1, 8]", r.CycleEdges)
			}
			if r.CycleDecoys == 0 {
				r.CycleDecoys = 2
			}
			if r.CycleDecoys < 0 || r.CycleDecoys > 8 {
				return nil, fmt.Errorf("cycle_decoys %d outside [0, 8]", r.CycleDecoys)
			}
			if r.Seed == 0 {
				r.Seed = 1
			}
			if r.Solver == "" {
				r.Solver = sat.DefaultBackend
			}
			if _, err := sat.BackendFactory(r.Solver); err != nil {
				return nil, err
			}
			return r, nil
		}
		if r.CycleEdges != 0 || r.CycleDecoys != 0 {
			return nil, fmt.Errorf("cycle_edges and cycle_decoys apply to cyclic attacks only")
		}
		r.SecretRedacted = false
		if r.RandomSecret {
			if r.Secret != 0 {
				return nil, fmt.Errorf("random_secret and an explicit secret are mutually exclusive")
			}
			s, err := keymat.RandomSecret(2 * r.OperandBits)
			if err != nil {
				return nil, err
			}
			r.Secret = s
		}
		if max := uint64(1)<<(2*r.OperandBits) - 1; r.Secret > max {
			return nil, fmt.Errorf("secret %d does not fit %d input bits", r.Secret, 2*r.OperandBits)
		}
		if r.Solver == "" {
			r.Solver = sat.DefaultBackend
		}
		if _, err := sat.BackendFactory(r.Solver); err != nil {
			return nil, err
		}
		return r, nil
	}
	if r.Solver != "" || r.RandomSecret {
		return nil, fmt.Errorf("solver and random_secret apply to attack jobs only")
	}
	if r.Scheme != "" || r.CycleEdges != 0 || r.CycleDecoys != 0 {
		return nil, fmt.Errorf("scheme, cycle_edges and cycle_decoys apply to attack jobs only")
	}

	// The prepare-family kinds share the front-of-line flow.
	if (r.Source == "") == (r.Bench == "") {
		return nil, fmt.Errorf("exactly one of source and bench is required")
	}
	if r.MaxFUs == 0 {
		r.MaxFUs = 2
	}
	if r.MaxFUs < 1 || r.MaxFUs > 8 {
		return nil, fmt.Errorf("max_fus %d outside [1, 8]", r.MaxFUs)
	}
	if r.Samples == 0 {
		r.Samples = 600
	}
	if r.Samples < 1 || r.Samples > 1<<20 {
		return nil, fmt.Errorf("samples %d outside [1, %d]", r.Samples, 1<<20)
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Workload == "" {
		if r.Bench != "" {
			b, err := bindlock.BenchmarkByName(r.Bench)
			if err != nil {
				return nil, err
			}
			r.gen = b.Gen
		} else {
			r.gen = bindlock.WorkloadUniform
		}
		r.Workload = r.gen.String()
	} else {
		gen, ok := workloads[r.Workload]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", r.Workload)
		}
		r.gen = gen
		if r.Bench != "" {
			if _, err := bindlock.BenchmarkByName(r.Bench); err != nil {
				return nil, err
			}
		}
	}

	switch r.Class {
	case "", "adder":
		r.Class, r.class = "adder", bindlock.ClassAdd
	case "multiplier":
		r.class = bindlock.ClassMul
	default:
		return nil, fmt.Errorf("unknown class %q (adder or multiplier)", r.Class)
	}

	if r.Kind == KindPrepare {
		return r, nil
	}

	if r.LockedFUs == 0 {
		r.LockedFUs = 1
	}
	if r.LockedFUs < 1 || r.LockedFUs > r.MaxFUs {
		return nil, fmt.Errorf("locked_fus %d outside [1, %d]", r.LockedFUs, r.MaxFUs)
	}
	if r.MintermsPerFU == 0 {
		r.MintermsPerFU = 1
	}
	if r.MintermsPerFU < 1 || r.MintermsPerFU > 64 {
		return nil, fmt.Errorf("minterms_per_fu %d outside [1, 64]", r.MintermsPerFU)
	}

	if r.Kind == KindBind {
		switch r.Binder {
		case "":
			r.Binder = "obfuscation-aware"
		case "obfuscation-aware", "area", "power", "random":
		default:
			return nil, fmt.Errorf("unknown binder %q (obfuscation-aware, area, power or random)", r.Binder)
		}
	}

	if r.Kind == KindCodesign {
		if r.Candidates == 0 {
			r.Candidates = 10
		}
		if r.Candidates < r.LockedFUs*r.MintermsPerFU || r.Candidates > 4096 {
			return nil, fmt.Errorf("candidates %d outside [%d, 4096]",
				r.Candidates, r.LockedFUs*r.MintermsPerFU)
		}
	}
	return r, nil
}

// prepareFingerprint covers exactly the inputs of the front-of-line flow;
// it keys the design memo, and the prepare kind's cache entries.
func (r *resolved) prepareFingerprint() *store.Fingerprint {
	return store.NewFingerprint(KindPrepare).
		Str("source", r.Source).
		Str("bench", r.Bench).
		Int("max_fus", int64(r.MaxFUs)).
		Int("samples", int64(r.Samples)).
		Str("workload", r.Workload).
		Int("seed", r.Seed)
}

// fingerprint returns the job's cache fingerprint: every resolved field the
// result depends on, and nothing else, so irrelevant fields can neither
// split nor collide cache entries.
func (r *resolved) fingerprint() *store.Fingerprint {
	if r.Kind == KindAttack {
		// The scheme always enters; only the fields that scheme actually
		// reads follow it, so an sfll job can never collide with a cyclic
		// one and irrelevant knobs can never split entries.
		fp := store.NewFingerprint(KindAttack).
			Int("operand_bits", int64(r.OperandBits)).
			Str("solver", r.Solver).
			Str("scheme", r.Scheme)
		if r.Scheme == SchemeCyclic {
			return fp.
				Int("cycle_edges", int64(r.CycleEdges)).
				Int("cycle_decoys", int64(r.CycleDecoys)).
				Int("seed", r.Seed)
		}
		return fp.Uint("secret", r.Secret)
	}
	if r.Kind == KindPrepare {
		return r.prepareFingerprint()
	}
	// The prepare fields again, under the job's own kind.
	base := store.NewFingerprint(r.Kind).
		Str("source", r.Source).
		Str("bench", r.Bench).
		Int("max_fus", int64(r.MaxFUs)).
		Int("samples", int64(r.Samples)).
		Str("workload", r.Workload).
		Int("seed", r.Seed).
		Str("class", r.Class).
		Int("locked_fus", int64(r.LockedFUs)).
		Int("minterms_per_fu", int64(r.MintermsPerFU))
	switch r.Kind {
	case KindBind:
		base.Str("binder", r.Binder)
	case KindCodesign:
		base.Int("candidates", int64(r.Candidates))
	}
	return base
}
