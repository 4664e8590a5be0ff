// Package repro is a from-scratch Go reproduction of "One Pixel Image
// and RF Signal Based Split Learning for mmWave Received Power
// Prediction" (Koda et al., CoNEXT '19 Companion).
//
// The library lives under internal/: the paper's contribution in
// internal/split and internal/transport (including the multi-UE
// BSServer that trains many concurrent UE sessions), and every substrate
// it depends on — a neural-network library (internal/tensor, internal/nn,
// internal/opt), the slotted fading channel (internal/radio,
// internal/channel), the negotiated cut-layer payload codecs
// (internal/compress), the synthetic corridor dataset (internal/scene,
// internal/dataset), the MDS privacy metric (internal/linalg,
// internal/mds), and the experiment drivers (internal/experiments).
//
// Run the paper's artefacts with cmd/mmsl, the distributed daemons with
// cmd/mmsl-ue and cmd/mmsl-bs (one coordinator in front of -replicas
// in-process BS servers, one by default: the paper's 1:1 topology, with
// internal/coord routing and internal/control as its admin plane); see
// README.md, DESIGN.md and EXPERIMENTS.md. Benchmarks regenerating every table and figure are in
// bench_test.go next to this file.
package repro
