package cache

import (
	"context"
	"encoding/json"

	"repro/internal/gatelib"
	"repro/internal/sim"
)

// CachedValidate memoizes standalone gate validation through the LRU and,
// in a fleet, the peer layer (nil outside one). The second return reports
// whether the result came from a cache. Only successful validations are
// stored (a failed solver lookup is returned uncached), and the cached
// value is the full Validation including the per-pattern outputs and the
// minimum energy gap. The context carries the request id for peer-layer
// propagation and bounds the validation itself: a cancelled or expired
// context returns its error and caches nothing. Nil is treated as
// context.Background().
func CachedValidate(ctx context.Context, lru *LRU, peer Layer, d *gatelib.Design, truth func(uint32) uint32, params sim.Params, opts gatelib.ValidateOptions) (gatelib.Validation, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	key := ValidationKey(d, truth, params, opts.Solver, opts.Surface)
	if b, ok := lru.Get(key); ok {
		var v gatelib.Validation
		if err := json.Unmarshal(b, &v); err == nil {
			return v, true, nil
		}
	}
	if peer != nil {
		// Peer errors fall through to a local validation, same as a miss.
		if b, ok, err := peer.Get(ctx, key); err == nil && ok {
			var v gatelib.Validation
			if err := json.Unmarshal(b, &v); err == nil {
				lru.Put(key, b)
				return v, true, nil
			}
		}
	}
	opts.Ctx = ctx
	v, err := gatelib.ValidateWith(d, truth, params, opts)
	if err != nil {
		return v, false, err
	}
	if b, err := json.Marshal(v); err == nil {
		lru.Put(key, b)
		if peer != nil {
			_ = peer.Put(ctx, key, b)
		}
	}
	return v, false, nil
}
