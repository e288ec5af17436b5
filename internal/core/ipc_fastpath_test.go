package core_test

// Fault-during-handoff: a register-carried fast-path transfer that takes a
// hard (pager-backed) fault mid-copy must unwind to the slow path with the
// thread's rolled-forward registers consistent, wait for the pager, and
// restart — leaving every user-visible artifact (received payload, reply,
// Table 3 fault/restart accounting) bit-identical to a run that never took
// the fast path (Config.DisableIPCFastPath). The fault is driven through
// every word offset of the message by sliding the receive buffer across a
// page boundary into an unpopulated pager-backed page.

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/prog"
	"repro/internal/sys"
)

// handoffFaultResult is everything a user program (or Table 3) can see.
// The pager's port/portset handle slots (pgPortVA/pgPsVA) are shared with
// fastpath_core_test.go.
type handoffFaultResult struct {
	payload   [core.FastMsgWords]uint32 // words landed in the server's buffer
	reply     uint32                    // last payload word, echoed back
	faults    map[core.FaultKey]uint64
	rollback  map[core.FaultKey]uint64
	restarts  [4]uint64
	fallbacks uint64
}

// runHandoffFault runs one FastMsgWords-word RPC whose receive buffer
// crosses into an unpopulated pager-backed page at word wordOff, so the
// copy hard-faults exactly there, and returns the observable outcome.
func runHandoffFault(t *testing.T, cfg core.Config, wordOff int) handoffFaultResult {
	t.Helper()
	e := newEnv(t, cfg)
	bindIPC(t, e.k, e.s, e.s)

	// The pager pair servicing the region's hard faults.
	po, _ := obj.New(sys.ObjPort)
	pso, _ := obj.New(sys.ObjPortset)
	pgPort := po.(*obj.Port)
	pgPs := pso.(*obj.Portset)
	if err := e.k.Bind(e.s, pgPortVA, pgPort); err != nil {
		t.Fatal(err)
	}
	if err := e.k.Bind(e.s, pgPsVA, pgPs); err != nil {
		t.Fatal(err)
	}
	pgPs.AddPort(pgPort)

	// Two pager-backed pages at pBase; nothing populated until the pager
	// services a fault.
	const pBase = 0x0100_0000
	reg, err := e.k.NewBoundRegion(e.s, regVA, 2*mem.PageSize, false)
	if err != nil {
		t.Fatal(err)
	}
	e.k.AttachPager(reg, pgPort)
	if _, err := e.k.MapInto(e.s, reg, pBase, 0, 2*mem.PageSize, mmu.PermRW); err != nil {
		t.Fatal(err)
	}

	// Words [0, wordOff) of the receive buffer sit on page 0 (populated by
	// the server's pre-touch below); word wordOff is the first byte of
	// page 1 and hard-faults mid-copy.
	rbuf := uint32(pBase + mem.PageSize - 4*wordOff)
	const (
		repBuf = dataBase + 0x300 // server's reply staging word
		sbuf   = dataBase + 0x100 // client's send buffer
		ackBuf = dataBase + 0x200 // client's reply landing word
	)

	// Echo server: pre-touch page 0, then serve. The receive count is one
	// past the message so the receive completes on the client's
	// message-end, and the reply (the last payload word) is staged in
	// ordinary memory so a retried reply would be idempotent.
	srv := prog.New(codeBase)
	srv.Movi(4, pBase).Movi(5, 0x5a).St(4, 0, 5).
		IPCWaitReceive(rbuf, core.FastMsgWords+1, psVA).
		Label("srv.loop").
		Movi(4, rbuf).Ld(5, 4, uint32(4*(core.FastMsgWords-1))).
		Movi(4, repBuf).St(4, 0, 5).
		IPCReplyWaitReceive(repBuf, 1, psVA, rbuf, core.FastMsgWords+1).
		Jmp("srv.loop")

	// Pager: service fault notifications (two-word messages: offset, kind)
	// by allocating the faulted page.
	const fmBuf = dataBase + 0x400
	pager := prog.New(codeBase + 0x8000)
	pager.Label("pg.loop").
		IPCWaitReceive(fmBuf, 2, pgPsVA).
		Movi(1, regVA).
		Movi(4, fmBuf).Ld(2, 4, 0).
		Movi(3, 1).
		Syscall(sys.NMemAllocate).
		Jmp("pg.loop")

	// Client: send FastMsgWords known words, receive the one-word reply.
	cli := prog.New(codeBase + 0x4000)
	for j := uint32(0); j < core.FastMsgWords; j++ {
		cli.Movi(4, sbuf+4*j).Movi(5, 0x1010+7*j).St(4, 0, 5)
	}
	cli.IPCClientConnectSendOverReceive(sbuf, core.FastMsgWords, refVA, ackBuf, 1).
		IPCClientDisconnect().
		Halt()

	if _, err := e.k.LoadImage(e.s, srv.Base(), srv.MustAssemble()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.k.LoadImage(e.s, pager.Base(), pager.MustAssemble()); err != nil {
		t.Fatal(err)
	}
	e.spawnAt(pager.Base(), 15) // pager above everything
	e.spawnAt(srv.Base(), 12)
	client := e.spawn(t, cli, 10)
	e.run(t, 400_000_000, client)

	var res handoffFaultResult
	for j := 0; j < core.FastMsgWords; j++ {
		res.payload[j] = e.word(t, rbuf+uint32(4*j))
	}
	res.reply = e.word(t, ackBuf)
	st := e.k.Stats()
	res.faults = st.FaultCount
	res.rollback = st.FaultRollback
	res.restarts = st.RestartsByCause()
	res.fallbacks = st.FastpathFallbacks
	return res
}

func TestFastPathFaultDuringHandoff(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg core.Config) {
		for wordOff := 0; wordOff < core.FastMsgWords; wordOff++ {
			on := runHandoffFault(t, cfg, wordOff)
			off := cfg
			off.DisableIPCFastPath = true
			offR := runHandoffFault(t, off, wordOff)

			// The transfer must have arrived intact in both runs.
			for j := 0; j < core.FastMsgWords; j++ {
				if want := uint32(0x1010 + 7*j); on.payload[j] != want {
					t.Fatalf("off=%d word %d = %#x, want %#x (fast path on)",
						wordOff, j, on.payload[j], want)
				}
			}
			wantReply := uint32(0x1010 + 7*(core.FastMsgWords-1))
			if on.reply != wantReply || offR.reply != wantReply {
				t.Fatalf("off=%d reply on=%#x off=%#x, want %#x",
					wordOff, on.reply, offR.reply, wantReply)
			}
			if on.payload != offR.payload {
				t.Fatalf("off=%d payload differs on vs off:\non:  %#x\noff: %#x",
					wordOff, on.payload, offR.payload)
			}
			// Bit-identical unwind accounting: same fault classes, same
			// rolled-back cycles, same Table 3 restart causes.
			if !reflect.DeepEqual(on.faults, offR.faults) {
				t.Fatalf("off=%d fault counts differ: on=%v off=%v",
					wordOff, on.faults, offR.faults)
			}
			// Rollback cycles are the cost of re-doing charged copy work;
			// register-carried words are never charged, so the fast path
			// may only shrink them — never grow them.
			for key, offCyc := range offR.rollback {
				if onCyc := on.rollback[key]; onCyc > offCyc {
					t.Fatalf("off=%d rollback grew with fast path on: %v on=%d off=%d",
						wordOff, key, onCyc, offCyc)
				}
			}
			if on.restarts != offR.restarts {
				t.Fatalf("off=%d restart causes differ: on=%v off=%v",
					wordOff, on.restarts, offR.restarts)
			}
			// The runs must actually have hard-faulted (pre-touch on page
			// 0 plus the mid-transfer fault on page 1) ...
			var hard uint64
			for k, n := range on.faults {
				if k.Class == mmu.FaultHard {
					hard += n
				}
			}
			if hard < 2 {
				t.Fatalf("off=%d only %d hard faults; the transfer never faulted", wordOff, hard)
			}
			// ... through the register-carried path when it was enabled.
			if on.fallbacks == 0 {
				t.Fatalf("off=%d fast path never fell back; fault missed the register-carried copy", wordOff)
			}
			if offR.fallbacks != 0 {
				t.Fatalf("off=%d disabled run counted %d fallbacks", wordOff, offR.fallbacks)
			}
		}
	})
}
