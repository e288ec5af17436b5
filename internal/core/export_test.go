package core

// SetHoldWindow shrinks the hold-history window of every lock slot the
// kernel has so far to n holds, so a small workload can drive holds out
// of the window while a CPU is still behind them.
func SetHoldWindow(k *Kernel, n int) {
	for i := range k.vlocks {
		k.vlocks[i].hist.window = uint64(n)
	}
}

// LiveLockStats reads LockStats the way an observation snapshot reads
// Stats: under the snapshot lock when a ParallelHost run may be live.
func LiveLockStats(k *Kernel) [NumLockKinds]LockStat {
	if k.par != nil {
		k.snapLock()
		defer k.snapUnlock()
	}
	return k.LockStats()
}
