package transport

import (
	"fmt"
	"math"
	"net"
	"strings"
	"testing"

	"repro/internal/split"
	"repro/internal/tensor"
)

// TestBSServerRejectsMisshapenActivations: a UE that answers a request
// with a cut tensor of the wrong shape — too short (which used to index
// past its end in BSPeer.fuse, on a dispatcher worker, and take the whole
// process down), too long, or the right size in the wrong shape — fails
// its own session with an error, and a healthy session running on the same
// server at the same time finishes.
func TestBSServerRejectsMisshapenActivations(t *testing.T) {
	const steps = 12
	prov := cachedProvision()
	srv, err := NewBSServer(ServerConfig{
		MaxUE: 2, Steps: steps, EvalEvery: 6, ValAnchors: 8, Provision: prov,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	neighbour := make(chan struct{})
	go func() {
		defer close(neighbour)
		runUERange(t, srv, 0, 1)
	}()

	// tinyConfig: batch 4 × L 2 frames of 8×8 under pool 4 → (8, 1, 2, 2).
	for i, shape := range [][]int{{7, 1, 2, 2}, {9, 1, 2, 2}, {8, 1, 4, 1}, {8, 2, 2, 1}, {32}} {
		h := tinyHello(10 + i)
		cfg, _, _, err := prov(h)
		if err != nil {
			t.Fatal(err)
		}
		h.ConfigFP = cfg.Fingerprint()
		ueConn, bsConn := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- srv.Handle(bsConn) }()
		if _, err := JoinSession(ueConn, h); err != nil {
			t.Fatal(err)
		}
		req, err := ReadMessage(ueConn)
		if err != nil {
			t.Fatal(err)
		}
		if req.Type != MsgBatchRequest && req.Type != MsgEvalRequest {
			t.Fatalf("first request is %v", req.Type)
		}
		if err := WriteMessage(ueConn, &Message{Type: MsgActivations, Step: req.Step, Tensor: tensor.New(shape...), Codec: cfg.Codec}); err != nil {
			t.Fatal(err)
		}
		ueConn.Close() // a server that took the tensor fails on its next write, not never
		if err := <-done; err == nil || !strings.Contains(err.Error(), "activations shape") {
			t.Fatalf("activations of shape %v: session ended with %v, want a shape error", shape, err)
		}
	}

	<-neighbour
	for _, s := range srv.Sessions() {
		switch {
		case s.ID == tinyHello(0).SessionID:
			if s.State != SessionDetached || s.Steps != steps {
				t.Errorf("healthy neighbour: state %v after %d steps (err %q)", s.State, s.Steps, s.Err)
			}
		case s.State != SessionFailed:
			t.Errorf("hostile session %s: state %v, want failed", s.ID, s.State)
		}
	}
}

// TestUEPeerRejectsMisshapenGradient: a cut gradient whose shape is not
// that of the activations the UE just sent ends Serve with an error; it
// used to panic in the backward pass.
func TestUEPeerRejectsMisshapenGradient(t *testing.T) {
	d := tinyDataset(t, 60)
	cfg := tinyConfig(split.ImageRF, 4)
	for _, shape := range [][]int{{3, 1, 2, 2}, {1, 1, 2, 2}, {2, 1, 4, 1}} {
		ueConn, bsConn := net.Pipe()
		ue, err := NewUEPeer(cfg, d, ueConn)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- ue.Serve() }()
		if err := WriteMessage(bsConn, &Message{Type: MsgBatchRequest, Step: 1, Anchors: []int32{10}}); err != nil {
			t.Fatal(err)
		}
		act, err := ReadMessage(bsConn)
		if err != nil {
			t.Fatal(err)
		}
		if got := act.Tensor.Shape(); len(got) != 4 || got[0] != 2 || got[2] != 2 || got[3] != 2 {
			t.Fatalf("activations shape %v, want [2 1 2 2]", got)
		}
		if err := WriteMessage(bsConn, &Message{Type: MsgCutGradient, Step: 1, Tensor: tensor.New(shape...), Codec: cfg.Codec}); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err == nil || !strings.Contains(err.Error(), "gradient shape") {
			t.Fatalf("gradient of shape %v: Serve returned %v, want a shape error", shape, err)
		}
		ueConn.Close()
		bsConn.Close()
	}
}

// TestUEPeerRefusesHostileAnchors: a request naming an anchor whose
// sequence does not lie in the dataset — one short of the first full
// sequence (L−2), one past the last frame (d.Len()), −1 and MinInt32 —
// ends Serve with the range error, on a batch and on an evaluation
// request alike, with a valid anchor ahead of it in the same request:
// the frame index is checked whole before the layer reads a frame, and
// nothing panics. The extreme valid anchors, L−1 and d.Len()−1, are
// served. A healthy session of a server in the same process trains on
// to detach meanwhile.
func TestUEPeerRefusesHostileAnchors(t *testing.T) {
	const steps = 12
	srv, err := NewBSServer(ServerConfig{
		MaxUE: 1, Steps: steps, EvalEvery: 6, ValAnchors: 8, Provision: cachedProvision(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	neighbour := make(chan struct{})
	go func() {
		defer close(neighbour)
		runUERange(t, srv, 0, 1)
	}()

	cfg, d, _, err := tinySessionEnv(tinyHello(1))
	if err != nil {
		t.Fatal(err)
	}
	L := cfg.SeqLen
	for _, typ := range []MsgType{MsgBatchRequest, MsgEvalRequest} {
		for _, hostile := range []int32{int32(L - 2), int32(d.Len()), -1, math.MinInt32} {
			ueConn, bsConn := net.Pipe()
			ue, err := NewUEPeer(cfg, d, ueConn)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- ue.Serve() }()
			valid := []int32{int32(L - 1), int32(d.Len() - 1)}
			if err := WriteMessage(bsConn, &Message{Type: MsgEvalRequest, Step: 1, Anchors: valid}); err != nil {
				t.Fatal(err)
			}
			act, err := ReadMessage(bsConn)
			if err != nil {
				t.Fatal(err)
			}
			if act.Type != MsgActivations || act.Tensor.Dim(0) != len(valid)*L {
				t.Fatalf("the valid anchors %v: %v of shape %v", valid, act.Type, act.Tensor.Shape())
			}
			if err := WriteMessage(bsConn, &Message{Type: typ, Step: 2, Anchors: []int32{int32(L), hostile}}); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("anchor %d outside usable range", hostile)
			if err := <-done; err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%v with anchor %d: Serve returned %v, want %q", typ, hostile, err, want)
			}
			ueConn.Close()
			bsConn.Close()
		}
	}

	<-neighbour
	s, ok := srv.SessionByID(tinyHello(0).SessionID)
	if !ok || s.State != SessionDetached || s.Steps != steps {
		t.Fatalf("healthy neighbour: %+v after the hostile requests, want detached after %d steps", s, steps)
	}
}
