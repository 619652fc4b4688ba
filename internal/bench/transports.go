package bench

import (
	"fmt"
	"os"
	"strings"
	"time"

	"scioto/internal/core"
	"scioto/internal/pgas"
	"scioto/internal/pgas/ipc"
	"scioto/internal/pgas/shm"
	"scioto/internal/pgas/tcp"
)

// envOpsFile carries the path rank 0 writes its measured OpTimings to on
// the multi-process transports, where rank 0 runs in a child process and
// a closure capture in the launcher would stay zero. The launcher sets it
// before Run (children inherit the environment at spawn) and reads the
// file back once Run returns.
const envOpsFile = "SCIOTO_BENCH_OPS_FILE"

// Transports runs the Table 1 microbenchmark on every real transport —
// shm (goroutines, one address space), ipc (co-hosted processes over one
// mmap'd file), and tcp (processes over loopback sockets) — and tabulates
// the measured wall-clock cost per operation side by side (`sciotobench
// -exp transports`, README's cross-transport table). The digits are this
// host's; what TestTransportsShapeAndOrdering holds is the table's shape
// and that a steal over the shared mapping stays cheaper than one over
// loopback sockets.
//
// The ipc and tcp rank processes re-execute the benchmark binary, so this
// function runs there too: each rank process constructs only its own
// transport's world (the per-transport launch environment says which),
// and the world sequence stays aligned because the sequence counters are
// per transport package.
func Transports(o Table1Options) *Table {
	o = o.withDefaults()
	inIPC := os.Getenv("SCIOTO_IPC_RANK") != ""
	inTCP := os.Getenv("SCIOTO_TCP_RANK") != ""
	launcher := !inIPC && !inTCP

	var shmT, ipcT, tcpT core.OpTimings
	if launcher {
		shmT = measureOpsOn(shm.NewWorld(shm.Config{NProcs: 2, Seed: 1}), o)
	}
	if launcher || inIPC {
		ipcT = measureOpsViaFile(launcher, func() pgas.World {
			return ipc.NewWorld(ipc.Config{NProcs: 2, Seed: 1})
		}, o)
	}
	if launcher || inTCP {
		tcpT = measureOpsViaFile(launcher, func() pgas.World {
			return tcp.NewWorld(tcp.Config{NProcs: 2, Seed: 1})
		}, o)
	}

	return &Table{
		ID:      "transports",
		Title:   "Core task collection operations across the real transports (µs, wall clock)",
		Columns: []string{"Task Collection Operation", "shm", "ipc", "tcp"},
		Rows: [][]string{
			{"Local Insert", us(shmT.LocalInsert), us(ipcT.LocalInsert), us(tcpT.LocalInsert)},
			{"Remote Insert", us(shmT.RemoteInsert), us(ipcT.RemoteInsert), us(tcpT.RemoteInsert)},
			{"Local Get", us(shmT.LocalGet), us(ipcT.LocalGet), us(tcpT.LocalGet)},
			{"Remote Steal", us(shmT.RemoteSteal), us(ipcT.RemoteSteal), us(tcpT.RemoteSteal)},
		},
		Notes: []string{
			"body 1 kB, chunk 10; real wall-clock on this host, compare transports not digits",
			"ipc Remote Steal should land well under tcp's, and under the cluster model's (Table 1)",
			"shm and ipc move task bodies with memory copies; tcp pays frame encode + syscalls + loopback per op",
		},
	}
}

// measureOpsViaFile runs the Table 1 microbenchmark on a multi-process
// world and returns rank 0's timings, shipped from the rank-0 child
// through a temp file named by the SCIOTO_BENCH_OPS_FILE environment. In
// the launcher it creates the file and sets the variable before the world
// spawns; in a rank process (launcher false) the inherited variable
// already names the launcher's file and the world's Run never returns
// (the rank's world exits the process when the body completes).
func measureOpsViaFile(launcher bool, mk func() pgas.World, o Table1Options) core.OpTimings {
	path := os.Getenv(envOpsFile)
	if launcher {
		f, err := os.CreateTemp("", "scioto-bench-ops-*")
		if err != nil {
			panic(fmt.Sprintf("bench: creating timings file: %v", err))
		}
		path = f.Name()
		f.Close()
		defer os.Remove(path)
		os.Setenv(envOpsFile, path)
		defer os.Unsetenv(envOpsFile)
	}
	mustRun(mk(), func(p pgas.Proc) {
		t := core.MeasureOps(p, o.BodySize, o.Chunk, o.Iters)
		if p.Rank() == 0 {
			if dst := os.Getenv(envOpsFile); dst != "" {
				if err := writeTimings(dst, t); err != nil {
					panic(fmt.Sprintf("bench: writing timings: %v", err))
				}
			}
		}
	})
	return readTimings(path)
}

// writeTimings records the four averages as whole nanoseconds, one line.
func writeTimings(path string, t core.OpTimings) error {
	line := fmt.Sprintf("%d %d %d %d\n",
		t.LocalInsert.Nanoseconds(), t.RemoteInsert.Nanoseconds(),
		t.LocalGet.Nanoseconds(), t.RemoteSteal.Nanoseconds())
	return os.WriteFile(path, []byte(line), 0o644)
}

// readTimings is the inverse of writeTimings.
func readTimings(path string) core.OpTimings {
	b, err := os.ReadFile(path)
	if err != nil {
		panic(fmt.Sprintf("bench: reading timings: %v", err))
	}
	var li, ri, lg, rs int64
	if _, err := fmt.Sscan(strings.TrimSpace(string(b)), &li, &ri, &lg, &rs); err != nil {
		panic(fmt.Sprintf("bench: rank 0 never recorded its timings (%q): %v", b, err))
	}
	return core.OpTimings{
		LocalInsert:  time.Duration(li),
		RemoteInsert: time.Duration(ri),
		LocalGet:     time.Duration(lg),
		RemoteSteal:  time.Duration(rs),
	}
}
