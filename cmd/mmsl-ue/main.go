// Command mmsl-ue runs the user-equipment half of the split network as a
// standalone process: it owns the depth camera's frames and the CNN
// layers, and serves forward passes over the framed split-learning
// protocol. Raw images never leave this process — only pooled CNN
// outputs do.
//
// It dials the mmsl-bs server at -connect, joins with the session-hello
// handshake under -session, and serves until the BS detaches the
// session. The BS provisions this session's model and labels from the
// announced seed, so many UEs with different seeds can train against
// one BS concurrently. A dropped connection is re-dialled with capped
// exponential backoff (-retries caps the consecutive attempts),
// resuming from the last checkpoint the BS instructed the UE to take;
// with -checkpoint-dir the UE half's checkpoints also survive a process
// restart.
//
//	mmsl-bs -listen :9920 -max-ue 8 &
//	mmsl-ue -connect localhost:9920 -session ue1 -seed 1
//
// The handshake carries -seed, -frames, -pool and -codec plus a config
// fingerprint, so the BS builds the matching half from them (in a real
// deployment the dataset is the shared physical environment) and a
// mismatch is rejected at join time instead of corrupting training.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"time"

	"repro/internal/compress"
	"repro/internal/split"
	"repro/internal/tensor"
	"repro/internal/transport"
)

func main() {
	connect := flag.String("connect", "localhost:9920", "BS server address to dial")
	session := flag.String("session", "", "session id (default ue-<seed>)")
	frames := flag.Int("frames", 2400, "synthetic dataset length")
	seed := flag.Int64("seed", 1, "experiment seed, announced to the BS")
	pool := flag.Int("pool", 40, "square pooling size")
	codecName := flag.String("codec", "raw", "cut-layer payload codec: raw, float16, int8, topk, or `default` to use whatever the BS's policy grants")
	ckptDir := flag.String("checkpoint-dir", "", "persist UE-half checkpoints here so resume survives a process restart (empty = in-memory only)")
	retries := flag.Int("retries", 6, "consecutive reconnect attempts before giving up")
	workers := flag.Int("workers", 0, "tensor worker-pool size for parallel kernels (0 = min(GOMAXPROCS, 8); results are identical for any value)")
	flag.Parse()
	if *workers != 0 {
		tensor.SetWorkers(*workers)
	}

	helloCodec := transport.CodecServerDefault
	if *codecName != "default" {
		codec, err := compress.Parse(*codecName)
		if err != nil {
			log.Fatalf("mmsl-ue: %v", err)
		}
		helloCodec = uint8(codec)
	}
	joinServer(*connect, *session, *seed, *frames, *pool, helloCodec, *ckptDir, *retries)
}

// joinServer dials the BS and serves one session with
// auto-reconnect and checkpoint/resume; the codec is negotiated per
// session through the hello/ack handshake. codec is the hello's codec
// byte — a compress.ID, or transport.CodecServerDefault to take
// whatever the BS's live policy grants in the ack.
func joinServer(addr, session string, seed int64, frames, pool int, codec uint8, ckptDir string, retries int) {
	if session == "" {
		session = fmt.Sprintf("ue-%d", seed)
	}
	h := transport.Hello{
		SessionID: session,
		Seed:      seed,
		Frames:    uint32(frames),
		Pool:      uint16(pool),
		Modality:  uint8(split.ImageRF),
		Codec:     codec,
	}
	cfg, data, _, err := transport.SessionEnv(h)
	if err != nil {
		log.Fatalf("mmsl-ue: session environment: %v", err)
	}
	if ckptDir != "" {
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			log.Fatalf("mmsl-ue: checkpoint dir: %v", err)
		}
	}
	codecDesc := "server-default"
	if codec != transport.CodecServerDefault {
		codecDesc = compress.ID(codec).String()
	}
	fmt.Printf("mmsl-ue: joining session %q at %s (seed %d, pooling %d×%d, %s codec)\n",
		session, addr, seed, pool, pool, codecDesc)
	us := &transport.UESession{
		Hello: h, Cfg: cfg, Data: data,
		CheckpointDir: ckptDir,
		Backoff:       transport.Backoff{Base: 200 * time.Millisecond, Max: 10 * time.Second, Retries: retries},
		Logf:          log.Printf,
	}
	err = us.Run(func() (io.ReadWriteCloser, error) { return net.Dial("tcp", addr) })
	switch {
	case err == nil:
		if n := us.Resumes(); n > 0 {
			fmt.Printf("mmsl-ue: session detached cleanly after %d resume(s)\n", n)
		} else {
			fmt.Println("mmsl-ue: session detached cleanly")
		}
	default:
		log.Fatalf("mmsl-ue: session: %v", err)
	}
}
