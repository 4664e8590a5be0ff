// Multi-UE split learning: four UEs — four cameras with different seeds,
// hence different corridors, pedestrians and channel realisations — dial
// one base station over real TCP sockets and train concurrently. Each
// connection opens with the session-hello/ack handshake (carrying the
// UE's seed, dataset size, pooling, payload codec and a config
// fingerprint), then runs the same framed split-learning protocol as
// the 1:1 examples. Each session negotiates its own cut-layer codec —
// the default mix runs int8, float16, top-k and raw side by side, so
// the final table shows the wire-byte spread directly. The BS trains
// the sessions in parallel, each until its validation RMSE reaches the
// target.
//
// The UEs run the fault-tolerant session loop: the server checkpoints
// train state every -checkpoint-every steps, and -drop-bytes injects a
// mid-training connection cut into UE 0's link — it reconnects with
// capped exponential backoff and resumes from the last checkpoint, so
// the final table shows a resumed session converging like the rest.
//
//	go run ./examples/multi_ue
//	go run ./examples/multi_ue -ues 2 -steps 120
//	go run ./examples/multi_ue -codecs raw,raw,raw,raw
//	go run ./examples/multi_ue -drop-bytes 200000     # kill+resume UE 0
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/compress"
	"repro/internal/split"
	"repro/internal/store"
	"repro/internal/transport"
)

func main() {
	ues := flag.Int("ues", 4, "number of concurrent UEs")
	frames := flag.Int("frames", 1200, "dataset length per UE")
	pool := flag.Int("pool", 40, "square pooling size (40 = the 1-pixel scheme)")
	steps := flag.Int("steps", 600, "max training steps per session")
	codecNames := flag.String("codecs", "int8,float16,topk,raw", "per-UE payload codecs, cycled over the UEs")
	ckptEvery := flag.Int("checkpoint-every", 25, "server checkpoint interval in steps")
	dropBytes := flag.Int64("drop-bytes", 0, "fault injection: cut UE 0's first connection after this many uplink bytes (0 = no fault)")
	flag.Parse()

	var codecs []compress.ID
	for _, name := range strings.Split(*codecNames, ",") {
		id, err := compress.Parse(strings.TrimSpace(name))
		if err != nil {
			log.Fatal(err)
		}
		codecs = append(codecs, id)
	}

	ckptDir, err := os.MkdirTemp("", "mmsl-ckpt-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(ckptDir)
	ckptStore, err := store.OpenJournal(filepath.Join(ckptDir, "store.journal"), store.JournalOptions{})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := transport.NewBSServer(transport.ServerConfig{
		MaxUE: *ues,
		Steps: *steps, EvalEvery: 30, ValAnchors: 64,
		TargetRMSEdB: 10.0, // fallback for UEs that announce no target
		IdleTimeout:  30 * time.Second,
		Store:        ckptStore, CheckpointEvery: *ckptEvery,
		Logf: log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("BS serving up to %d UEs on %s (checkpoints every %d steps)\n",
		*ues, ln.Addr(), *ckptEvery)
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = srv.Serve(ln) // returns once the listener closes below
	}()

	// Each UE: derive its own environment from its hello, dial, join,
	// serve its CNN half until the BS detaches the session — riding
	// through injected connection faults by resuming from the last
	// checkpoint. Every UE announces its own stopping target — each
	// corridor has a different power dynamic range, so a single global
	// threshold fits none.
	targets := []float64{9.0, 5.0, 10.5, 1.5}
	sessions := make([]*transport.UESession, *ues)
	var wg sync.WaitGroup
	for i := 0; i < *ues; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := transport.Hello{
				SessionID:    fmt.Sprintf("ue-%d", i),
				Seed:         int64(3 + i),
				Frames:       uint32(*frames),
				Pool:         uint16(*pool),
				Modality:     uint8(split.ImageRF),
				TargetRMSEdB: targets[i%len(targets)],
				Codec:        uint8(codecs[i%len(codecs)]),
			}
			cfg, data, _, err := transport.SessionEnv(h)
			if err != nil {
				log.Fatalf("%s: environment: %v", h.SessionID, err)
			}
			us := &transport.UESession{
				Hello: h, Cfg: cfg, Data: data,
				Backoff: transport.Backoff{Base: 100 * time.Millisecond, Max: 2 * time.Second},
			}
			sessions[i] = us
			dials := 0
			err = us.Run(func() (io.ReadWriteCloser, error) {
				conn, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					return nil, err
				}
				dials++
				if i == 0 && dials == 1 && *dropBytes > 0 {
					fmt.Printf("%s: injecting a link fault after %d uplink bytes\n", h.SessionID, *dropBytes)
					return transport.NewFaultConn(conn, -1, *dropBytes), nil
				}
				return conn, nil
			})
			if err != nil {
				log.Fatalf("%s: %v", h.SessionID, err)
			}
		}(i)
	}
	wg.Wait()
	ln.Close()
	<-serveDone
	srv.Wait()
	srv.Close()
	if err := ckptStore.Close(); err != nil {
		log.Printf("checkpoint store close: %v", err)
	}

	fmt.Println("\nsession   codec     state      steps   resumes   val RMSE    target      status   wire in/out")
	ok := true
	seen := map[string]bool{}
	snaps := srv.Sessions()
	// Walk newest-first so each session id reports its final incarnation.
	for i := len(snaps) - 1; i >= 0; i-- {
		s := snaps[i]
		if seen[s.ID] {
			continue
		}
		seen[s.ID] = true
		status := "reached"
		if !s.Reached {
			status = "missed"
			ok = false
		}
		if s.State != transport.SessionDetached {
			status = s.Err
			ok = false
		}
		var resumes int
		for _, us := range sessions {
			if us != nil && us.Hello.SessionID == s.ID {
				resumes = us.Resumes()
			}
		}
		fmt.Printf("%-8s  %-8s  %-8s   %5d   %7d   %5.2f dB   %5.1f dB   %-7s  %d/%d B\n",
			s.ID, compress.ID(s.Hello.Codec), s.State, s.Steps, resumes, s.LastRMSE,
			s.Hello.TargetRMSEdB, status, s.BytesIn, s.BytesOut)
	}
	if !ok {
		fmt.Println("\nnot every session reached its target — try more -steps")
		os.Exit(1)
	}
	fmt.Printf("\nall %d UEs trained to their targets against one BS; no raw image ever left a UE\n", *ues)
}
