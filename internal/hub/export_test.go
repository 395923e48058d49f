package hub

// SchedStats reports the event kernel's traffic over the arena's last run:
// events scheduled and the heap's high-water mark. Test-only, so the peak
// stays out of RunResult, the obs counters and the golden files.
func (a *Arena) SchedStats() (scheduled uint64, peak int) {
	scheduled, _ = a.r.sched.Stats()
	return scheduled, a.r.sched.PeakPending()
}
