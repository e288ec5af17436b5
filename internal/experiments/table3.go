package experiments

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/pager"
	"repro/internal/prog"
	"repro/internal/stats"
	"repro/internal/sys"
)

// Table 3: restart costs for the four kernel-internal exception flavours
// during a reliable IPC transfer (ipc_client_connect_send_over_receive),
// "the area of the kernel with the most internal synchronization", on the
// process model without kernel preemption — exactly the paper's setup.
//
// A "client-side" fault hits the client's address space during the copy,
// a "server-side" fault the server's; "soft" faults are remedied from the
// mapping hierarchy in the kernel, "hard" faults require an RPC to the
// user-level memory manager. "Cost to Remedy" is the time to service the
// fault; "Cost to Rollback" is the work thrown away and redone because
// the operation restarts from its rolled-forward registers.

// Table3Row is one measured flavour. Faults comes from the experiment's
// own Stats bookkeeping; MetricRestarts is the same quantity as read from
// a metrics registry snapshot's fault.restarts.* counter for the
// flavour's cause class, which the registry derives from Stats by cause
// key — the two must agree (pinned by TestTable3MetricsAgree).
type Table3Row struct {
	Cause          string
	RemedyUS       float64
	RollbackUS     float64
	Faults         uint64
	MetricRestarts uint64
}

const (
	t3Code   = 0x0001_0000
	t3Data   = 0x0004_0000 // pre-touched scratch (reply buffers)
	t3Buf    = 0x0010_0000 // 4-page transfer buffer (send or recv)
	t3Pages  = 4
	t3Words  = t3Pages * mem.PageSize / 4
	t3Target = 1 * mem.PageSize // the injected-fault page (byte offset)
)

// runTable3Flavor runs one RPC with a single injected fault and returns
// the measured costs.
func runTable3Flavor(hard, serverSide bool) (Table3Row, error) {
	name := "Client-side"
	side := core.FaultSame
	if serverSide {
		name = "Server-side"
		side = core.FaultCross
	}
	class := mmu.FaultSoft
	if hard {
		name += " hard page fault"
		class = mmu.FaultHard
	} else {
		name += " soft page fault"
	}
	row := Table3Row{Cause: name}

	k := core.New(core.Config{Model: core.ModelProcess, Preempt: core.PreemptNone})
	m := k.EnableMetrics()
	sCli := k.NewSpace()
	sSrv := k.NewSpace()

	// mkBuf installs the 4-page transfer region at t3Buf plus a
	// pre-touched scratch page at t3Data in space s. When target, one
	// page of the transfer buffer is left absent (soft) or pager-backed
	// and absent (hard).
	mkBuf := func(s *obj.Space, target bool) (*obj.Region, error) {
		scratch := &obj.Region{Header: obj.Header{Type: sys.ObjRegion}, R: mmu.NewRegion(mem.PageSize, true)}
		k.BindFresh(s, scratch)
		if _, err := k.MapInto(s, scratch, t3Data, 0, mem.PageSize, mmu.PermRW); err != nil {
			return nil, err
		}
		if err := k.WriteMem(s, t3Data, make([]byte, 64)); err != nil {
			return nil, err
		}
		demandZero := !(target && hard)
		reg := &obj.Region{Header: obj.Header{Type: sys.ObjRegion}, R: mmu.NewRegion(t3Pages*mem.PageSize, demandZero)}
		k.BindFresh(s, reg)
		if _, err := k.MapInto(s, reg, t3Buf, 0, t3Pages*mem.PageSize, mmu.PermRW); err != nil {
			return nil, err
		}
		// Pre-touch every page except the injected one (all pages when
		// this buffer is not the target).
		for p := uint32(0); p < t3Pages; p++ {
			if target && p*mem.PageSize == t3Target {
				continue
			}
			if demandZero {
				if err := k.WriteMem(s, t3Buf+p*mem.PageSize, []byte{1}); err != nil {
					return nil, err
				}
				continue
			}
			// Pager-backed: populate the frame and install the PTE
			// so no incidental fault occurs.
			f, err := k.Alloc.Alloc()
			if err != nil {
				return nil, err
			}
			reg.R.Populate(p*mem.PageSize, f)
			if err := s.AS.ResolveSoft(t3Buf+p*mem.PageSize, cpu.Write); err != nil {
				return nil, err
			}
		}
		return reg, nil
	}

	sendReg, err := mkBuf(sCli, !serverSide)
	if err != nil {
		return row, err
	}
	recvReg, err := mkBuf(sSrv, serverSide)
	if err != nil {
		return row, err
	}
	if hard {
		target, owner := sendReg, sCli
		if serverSide {
			target, owner = recvReg, sSrv
		}
		if _, err := pager.Install(k, owner, target, pager.DefaultConfig()); err != nil {
			return row, err
		}
	}

	// IPC plumbing.
	po, _ := obj.New(sys.ObjPort)
	pso, _ := obj.New(sys.ObjPortset)
	port := po.(*obj.Port)
	ps := pso.(*obj.Portset)
	k.BindFresh(sSrv, port)
	psVA := k.BindFresh(sSrv, ps)
	ps.AddPort(port)
	refVA := k.BindFresh(sCli, &obj.Ref{Header: obj.Header{Type: sys.ObjRef}, Target: port})

	srv := prog.New(t3Code)
	srv.IPCWaitReceive(t3Buf, t3Words, psVA).
		IPCReply(t3Data+0x20, 4).
		Halt()
	cli := prog.New(t3Code)
	cli.IPCClientConnectSendOverReceive(t3Buf, t3Words, refVA, t3Data+0x20, 4).
		Halt()
	if _, err := k.SpawnProgram(sSrv, t3Code, srv.MustAssemble(), 10); err != nil {
		return row, err
	}
	client, err := k.SpawnProgram(sCli, t3Code, cli.MustAssemble(), 10)
	if err != nil {
		return row, err
	}
	k.RunFor(2_000_000_000)
	if !client.Exited {
		return row, fmt.Errorf("table3 %s: client stuck (state=%v pc=%#x r0=%d)",
			name, client.State, client.Regs.PC, client.Regs.R[0])
	}
	if e := sys.Errno(client.Regs.R[0]); e != sys.EOK {
		return row, fmt.Errorf("table3 %s: RPC errno %v", name, e)
	}
	key := core.FaultKey{Class: class, Side: side}
	n := k.Stats().FaultCount[key]
	if n == 0 {
		return row, fmt.Errorf("table3 %s: no %v/%v fault recorded", name, class, side)
	}
	row.Faults = n
	row.RemedyUS = float64(k.Stats().FaultRemedy[key]) / float64(n) / clock.CyclesPerMicrosecond
	row.RollbackUS = float64(k.Stats().FaultRollback[key]) / float64(n) / clock.CyclesPerMicrosecond
	ci := 0
	if hard {
		ci = 2
	}
	if serverSide {
		ci++
	}
	for _, c := range m.Registry.Snapshot().Counters {
		if c.Name == "fault.restarts."+core.FaultCauseNames[ci] {
			row.MetricRestarts = c.Value
		}
	}
	return row, nil
}

// Table3 measures all four flavours.
func Table3() ([]Table3Row, error) {
	flavours := []struct{ hard, server bool }{
		{false, false}, // client soft
		{true, false},  // client hard
		{false, true},  // server soft
		{true, true},   // server hard
	}
	var rows []Table3Row
	for _, f := range flavours {
		r, err := runTable3Flavor(f.hard, f.server)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	// Paper ordering: client soft, client hard, server soft, server hard.
	return rows, nil
}

// Table3Render formats the rows like the paper.
func Table3Render(rows []Table3Row) *stats.Table {
	t := stats.NewTable("Table 3: Restart costs (µs) for kernel-internal exceptions during a reliable IPC transfer (Process NP)",
		"Actual Cause of Exception", "Cost to Remedy", "Cost to Rollback")
	for _, r := range rows {
		rb := stats.FormatFloat(r.RollbackUS)
		if r.RollbackUS < 0.05 {
			rb = "none"
		}
		t.Row(r.Cause, r.RemedyUS, rb)
	}
	return t
}

// Table3MetricsAppendix cross-checks the experiment's fault bookkeeping
// against the kernel metrics registry: the fault.restarts.* counter for
// each cause class must report exactly the faults the experiment saw.
func Table3MetricsAppendix(rows []Table3Row) *stats.Table {
	t := stats.NewTable("Table 3 appendix: restart counters from the metrics registry",
		"Actual Cause of Exception", "Faults (experiment)", "fault.restarts.* (metrics)", "Agree")
	for _, r := range rows {
		agree := "yes"
		if r.Faults != r.MetricRestarts {
			agree = "NO"
		}
		t.Row(r.Cause, r.Faults, r.MetricRestarts, agree)
	}
	return t
}
