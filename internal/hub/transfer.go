package hub

// The Interrupt + Data Transfer entry points: every transfer plan a policy
// can choose — per-sample, coalesced batch flush, result-only notification —
// allocates an xfer pool slot and enters the shared chain in events.go. The
// wire-level fault handling (linkSend) lives in chaos.go.

import (
	"iothub/internal/obs"
)

// interruptAndTransfer is the per-sample path (SampleAction Interrupt): the
// MCU raises the interrupt, the CPU fields it and pulls the sample over the
// link. Delivery bookkeeping happens in the chain's continuation (xfSample).
func (r *runner) interruptAndTransfer(s *stream, k, w int) {
	r.startXfer(r.allocXfer(xfer{kind: xfSample, n: s.bytes, s: s, k: k, w: w}))
}

// batchSample appends a sample to the app's MCU-side batch, flushing early
// when the MCU RAM cannot hold more — or, under an armed resilience policy,
// already when RAM pressure crosses the escalation threshold. The final
// flush of a window is triggered by maybeComplete once all expected samples
// have been read.
func (r *runner) batchSample(st *appState, s *stream, w int, k int) {
	if r.pol != nil && r.pol.FlushAtRAMFrac > 0 && st.batchFill > 0 {
		if float64(r.mcu.RAMUsed()+s.bytes) > r.pol.FlushAtRAMFrac*float64(r.params.MCU.UsableRAM()) {
			r.res.EarlyFlushes++
			r.flushBatch(st, w, false)
		}
	}
	// Each test checks the free space before Alloc, so a full buffer — the
	// common case under RAM pressure — formats no error.
	if s.bytes > r.mcu.RAMFree() || r.mcu.Alloc(s.bytes) != nil {
		// RAM pressure: flush what we have, then retry the allocation for
		// this sample against the freed space.
		r.flushBatch(st, w, false)
		if s.bytes > r.mcu.RAMFree() || r.mcu.Alloc(s.bytes) != nil {
			// The sample alone exceeds the free buffer (e.g. a camera frame
			// next to a large offloaded footprint): it cannot be batched at
			// all, so stream it through as its own immediate flush.
			st.batchFill += s.bytes
			r.flushBatch(st, w, false)
			return
		}
	}
	st.batchAllocd += s.bytes
	st.batchFill += s.bytes
	st.batchRefs = append(st.batchRefs, batchRef{s: s, k: k})
	// A buffered sample crosses in a later bulk transfer, raising no
	// interrupt of its own.
	r.obs.Inc(obs.InterruptsCoalesced)
}

// flushBatch raises one interrupt and bulk-transfers the app's batch — the
// coalesced transfer plan. The final flush of a window triggers the CPU-side
// computation — even when link faults swallowed a bulk frame past the retry
// budget: the window then computes on what arrived (the loss is visible in
// LinkAbortedTransfers). Completion bookkeeping lives in the chain's
// continuation (xfBatch).
func (r *runner) flushBatch(st *appState, w int, final bool) {
	fill := st.batchFill
	alloc := st.batchAllocd
	st.batchFill = 0
	st.batchAllocd = 0
	st.batchRefs = st.batchRefs[:0]
	if fill == 0 && !final {
		return
	}
	// The transfer engine drains the buffer as it transmits, so the RAM is
	// reusable for new samples as soon as the flush is initiated.
	if err := r.mcu.Free(alloc); err != nil {
		r.fail(err)
		return
	}
	st.pendingFlushes[w]++
	r.startXfer(r.allocXfer(xfer{kind: xfBatch, n: fill, st: st, w: w, fill: fill, final: final}))
}
