package netsrv

import (
	"strings"
	"testing"
)

// TestConfigFill pins Config.fill's defaults and every limit it enforces,
// including the DMA window bound: Attach maps nsDMA..nsDMA+dmaRxBuf+
// Workers*BufPages*PageSize in 32 bits, so a window that reaches the
// kernel-handle window (or wraps) must be rejected here, not mapped.
func TestConfigFill(t *testing.T) {
	// The largest RX-buffer page count that still ends at or below
	// core.KObjBase: (0xFFE0_0000 - 0x0100_0000 - 0x3000) / 4096.
	const maxPages = 1043965
	for _, tc := range []struct {
		name string
		cfg  Config
		err  string // "" = accepted
	}{
		{"defaults", Config{}, ""},
		{"max queues", Config{Queues: MaxQueues}, ""},
		{"too many queues", Config{Queues: MaxQueues + 1}, "queues"},
		{"negative queues", Config{Queues: -1}, "queues"},
		{"max workers", Config{Workers: MaxWorkers}, ""},
		{"too many workers", Config{Workers: MaxWorkers + 1}, "workers"},
		{"negative workers", Config{Workers: -1}, "workers"},
		{"ring not a power of two", Config{RingSlots: 12}, "power of two"},
		{"ring overflows its page", Config{RingSlots: 512}, "ring page"},
		{"ring smaller than crew", Config{Workers: 16, RingSlots: 8}, "ring slots"},
		{"negative buffer pages", Config{BufPages: -1}, "buffer pages"},
		{"window at the limit", Config{Workers: 1, BufPages: maxPages}, ""},
		{"window one page past", Config{Workers: 1, BufPages: maxPages + 1}, "DMA window"},
		{"full crew at the limit", Config{Workers: MaxWorkers, BufPages: maxPages / MaxWorkers}, ""},
		{"full crew one page past", Config{Workers: MaxWorkers, BufPages: maxPages/MaxWorkers + 1}, "DMA window"},
		{"window wraps 2^32", Config{Workers: 32, BufPages: 32768}, "DMA window"},
		{"huge buffer pages", Config{BufPages: 1 << 62}, "DMA window"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.cfg.fill()
			if tc.err == "" {
				if err != nil {
					t.Fatalf("fill(%+v): %v", tc.cfg, err)
				}
				if got.Queues <= 0 || got.Workers <= 0 || got.BufPages <= 0 || got.RingSlots < got.Workers {
					t.Fatalf("fill(%+v) = %+v: a size left unset", tc.cfg, got)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("fill(%+v) error = %v, want one mentioning %q", tc.cfg, err, tc.err)
			}
		})
	}
	got, err := Config{}.fill()
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Queues: 1, Workers: 4, BufPages: 16, RingSlots: 8,
		WireCycles: 4000, DriverPriority: 30, WorkerPriority: 25}
	if got != want {
		t.Fatalf("defaults = %+v, want %+v", got, want)
	}
}
