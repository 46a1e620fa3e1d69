package cache

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/logic/network"
	"repro/internal/obs"
)

// FlowArtifact is the serializable outcome of a flow run — the subset of
// core.Result a service client can use, including the optional SiQAD
// design file and run report. It is what the flow cache stores, so a warm
// request replays the cold run's artifacts byte for byte.
type FlowArtifact struct {
	Name       string              `json:"name"`
	EngineUsed string              `json:"engine_used"`
	Width      int                 `json:"width"`
	Height     int                 `json:"height"`
	Gates      int                 `json:"gates"`
	SiDBs      int                 `json:"sidbs"`
	AreaNM2    float64             `json:"area_nm2"`
	CellSim    *core.CellSimResult `json:"cellsim,omitempty"`
	SQD        string              `json:"sqd,omitempty"`
	Report     json.RawMessage     `json:"report,omitempty"`
	// Degraded reports that deadline pressure forced a cheaper engine
	// somewhere in the run (exact→ortho P&R, exact→anneal simulation).
	// Degraded artifacts are never cached: a retry with more budget gets
	// the full-quality result.
	Degraded bool `json:"degraded,omitempty"`
}

// FlowCache memoizes whole flow runs: an in-memory LRU in front of an
// optional disk layer. Disk entries survive daemon restarts, so a warm
// fleet can be primed from a shared artifact directory.
type FlowCache struct {
	Mem *LRU
	// Disk is nil when the persistent layer is disabled; the service
	// installs a ResilientDisk here so transient I/O errors are retried
	// and repeated failures degrade to memory-only caching.
	Disk DiskLayer
	// Peer is nil outside a fleet; when set, a local miss consults the
	// key's owner replica before solving, and cold results are pushed to
	// the owner. The service wraps it in the same Resilient breaker as
	// the disk, so a flapping peer degrades to local-only caching.
	Peer Layer
}

// Source values reported by Run.
const (
	SourceMem    = "mem"
	SourceDisk   = "disk"
	SourcePeer   = "peer"
	SourceMiss   = "miss"
	SourceBypass = "bypass"
)

// Run executes (or replays) a flow. The source return tells where the
// artifact came from: SourceMem, SourceDisk, SourceMiss (cold run, now
// cached), or SourceBypass (cold run, not cacheable). Caching is bypassed
// when the options carry non-addressable content — a custom gate library —
// and failures are never cached, so a transient cancellation does not
// poison later requests.
//
// When withReport is set and no tracer is supplied in opts, Run attaches
// its own per-run tracer so the stored artifact carries the cold run's
// stage report; warm requests replay that report unchanged.
func (fc *FlowCache) Run(ctx context.Context, spec *network.XAG, opts core.Options, withSQD, withReport bool) (*FlowArtifact, string, error) {
	bypass := opts.Library != nil
	var key Key
	if !bypass {
		key = FlowKey(spec, opts, withSQD, withReport)
		if b, ok := fc.Mem.Get(key); ok {
			if art, err := decodeArtifact(b); err == nil {
				return art, SourceMem, nil
			}
		}
		if fc.Disk != nil {
			// Disk errors are non-fatal: the resilient layer has already
			// retried, so a failure here falls through to a cold run.
			if b, ok, err := fc.Disk.Get(ctx, key); err == nil && ok {
				if art, err := decodeArtifact(b); err == nil {
					fc.Mem.Put(key, b)
					return art, SourceDisk, nil
				}
			}
		}
		if fc.Peer != nil {
			// Peer errors fall through to a cold run, same as disk errors.
			if b, ok, err := fc.Peer.Get(ctx, key); err == nil && ok {
				if art, err := decodeArtifact(b); err == nil {
					fc.Mem.Put(key, b)
					if fc.Disk != nil {
						_ = fc.Disk.Put(ctx, key, b)
					}
					return art, SourcePeer, nil
				}
			}
		}
	}

	art, err := RunFlow(ctx, spec, opts, withSQD, withReport)
	if err != nil {
		return nil, SourceMiss, err
	}
	if bypass {
		return art, SourceBypass, nil
	}
	if art.Degraded {
		// A degraded artifact reflects this request's deadline, not the
		// problem content; caching it would serve reduced-quality results
		// to well-budgeted future requests.
		return art, SourceBypass, nil
	}
	b, err := json.Marshal(art)
	if err != nil {
		return art, SourceMiss, nil
	}
	fc.Mem.Put(key, b)
	if fc.Disk != nil {
		// Persistent layer failures degrade to memory-only caching.
		_ = fc.Disk.Put(ctx, key, b)
	}
	if fc.Peer != nil {
		// Push the cold result to the key's owner so the whole fleet warms
		// from one solve. Degraded artifacts never reach this point.
		_ = fc.Peer.Put(ctx, key, b)
	}
	return art, SourceMiss, nil
}

// RunFlow executes a cold flow run and packages the requested artifacts.
// When withReport is set and no tracer is supplied in opts, a per-run
// tracer is attached so the artifact carries the run's stage report.
func RunFlow(ctx context.Context, spec *network.XAG, opts core.Options, withSQD, withReport bool) (*FlowArtifact, error) {
	if withReport && opts.Tracer == nil {
		opts.Tracer = obs.New()
	}
	res, err := core.RunContext(ctx, spec, opts)
	if err != nil {
		return nil, err
	}
	art := &FlowArtifact{
		Name:       spec.Name,
		EngineUsed: res.EngineUsed,
		Width:      res.Layout.Width(),
		Height:     res.Layout.Height(),
		Gates:      res.Rewritten.NumGates(),
		SiDBs:      res.SiDBs,
		AreaNM2:    res.AreaNM2,
		CellSim:    res.CellSim,
		Degraded:   res.Degraded,
	}
	if withSQD {
		s, err := res.ExportSQD()
		if err != nil {
			return nil, err
		}
		art.SQD = s
	}
	if withReport {
		if rep, err := opts.Tracer.Report(spec.Name).JSON(); err == nil {
			art.Report = rep
		}
	}
	return art, nil
}

func decodeArtifact(b []byte) (*FlowArtifact, error) {
	var art FlowArtifact
	if err := json.Unmarshal(b, &art); err != nil {
		return nil, fmt.Errorf("cache: flow artifact: %w", err)
	}
	return &art, nil
}
