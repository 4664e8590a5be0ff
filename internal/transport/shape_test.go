package transport

import (
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
