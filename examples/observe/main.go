// Observe: the observability stack end to end. A client and a server
// exchange a run of small RPCs (the paper's reliable-transfer path,
// ipc_client_connect_send_over_receive / ipc_reply_wait_receive) while
// the kernel records typed trace events into a ring and updates its
// metrics registry. Afterwards the example prints the metrics snapshot —
// per-syscall latency histograms, context switches, IPC bytes, the
// interpreter's cpu.* block counters — and writes the trace as
// Perfetto/Chrome trace_event JSON.
//
//	go run ./examples/observe
//	go run ./examples/observe -out observe.json
//
// Open the JSON in https://ui.perfetto.dev (or chrome://tracing) to see
// each thread's syscall spans on its own track.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/obj"
	"repro/internal/prog"
	"repro/internal/sys"
	"repro/internal/trace"
)

const (
	codeBase = 0x0001_0000
	dataBase = 0x0004_0000
	sendBuf  = dataBase + 0x1000
	recvBuf  = dataBase + 0x8000
	replyBuf = dataBase + 0xC000
	rounds   = 20
	words    = 256 // 1 KB per RPC
)

func main() {
	out := flag.String("out", "observe.json", "Perfetto trace output file")
	flag.Parse()

	k := core.New(core.Config{Model: core.ModelProcess, Preempt: core.PreemptPartial})
	m := k.EnableMetrics()
	ring := trace.NewRing(1 << 16)
	k.Tracer = ring

	s := k.NewSpace()
	data := &obj.Region{Header: obj.Header{Type: sys.ObjRegion}, R: mmu.NewRegion(0x10000, true)}
	k.BindFresh(s, data)
	if _, err := k.MapInto(s, data, dataBase, 0, 0x10000, mmu.PermRW); err != nil {
		log.Fatal(err)
	}

	po, _ := obj.New(sys.ObjPort)
	pso, _ := obj.New(sys.ObjPortset)
	port, ps := po.(*obj.Port), pso.(*obj.Portset)
	k.BindFresh(s, port)
	psVA := k.BindFresh(s, ps)
	ps.AddPort(port)
	refVA := k.BindFresh(s, &obj.Ref{Header: obj.Header{Type: sys.ObjRef}, Target: port})

	// Server: the flukeperf echo-service loop — receive, then
	// reply-and-wait forever. The run ends when the client halts and the
	// system goes idle.
	srv := prog.New(codeBase + 0x8000)
	srv.IPCWaitReceive(recvBuf, words, psVA).
		Label("serve").
		IPCReplyWaitReceive(replyBuf, 8, psVA, recvBuf, words).
		Jmp("serve")

	cli := prog.New(codeBase)
	cli.Movi(6, 0).
		Label("ping").
		Movi(5, rounds)
	cli.Beq(6, 5, "cli.done")
	cli.IPCClientConnectSendOverReceive(sendBuf, words, refVA, replyBuf, 8).
		IPCClientDisconnect().
		Addi(6, 6, 1).
		Jmp("ping").
		Label("cli.done").
		Halt()

	if _, err := k.LoadImage(s, srv.Base(), srv.MustAssemble()); err != nil {
		log.Fatal(err)
	}
	client, err := k.SpawnProgram(s, cli.Base(), cli.MustAssemble(), 10)
	if err != nil {
		log.Fatal(err)
	}
	server := k.NewThread(s, 10)
	server.Regs.PC = srv.Base()
	k.StartThread(server)

	k.RunFor(1_000_000_000)
	if !client.Exited {
		log.Fatalf("client stuck (state=%v pc=%#x)", client.State, client.Regs.PC)
	}

	fmt.Printf("%d RPC rounds of %d bytes, virtual time %.2f ms\n\n",
		rounds, words*4, clock.Micros(k.Clock.Now())/1000)
	fmt.Print(m.Registry.Render("observe: kernel metrics"))

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := ring.ExportJSON(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %d trace events to %s — open in https://ui.perfetto.dev\n",
		ring.Len(), *out)
}
