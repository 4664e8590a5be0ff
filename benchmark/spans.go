package main

import "sort"

// layerSamples is what the traced run's server-side wrappers add to the
// UE-side view: service time on the replica's connection, the relay's
// share of a round, store puts, and the two halves of each handover.
type layerSamples struct {
	bsServiceMs  []float64
	relayRttUs   []float64 // UE-side round minus replica-side service: relay up plus relay down
	puts         []interval
	migrateOutMs []float64
	adoptMs      []float64
	unmatched    int // rounds with no replica-side record
}

// buildSpans assembles the span tree of a traced phase from the records
// the taps and wrappers kept:
//
//	session ⊃ join, round…, migrate ⊃ migrate_out, adopt; resume_gap
//	round   ⊃ ue.fwd, serve ⊃ relay.up, bs.service, relay.down; ue.bwd; store.put
//
// store.put hangs under round, not under bs.service: the BS writes the
// checkpoint after the gradient has left, while the UE is in its
// backward pass, so it delays the next request rather than this
// round's gradient — and it overlaps ue.bwd, which is why self time
// subtracts the union of the children.
func buildSpans(ph *phase) (*spanLog, layerSamples) {
	f := ph.b.f
	log := &spanLog{}
	var ls layerSamples

	putsBy := make(map[string][]putRec)
	for _, p := range f.puts.recs {
		putsBy[p.session] = append(putsBy[p.session], p)
		ls.puts = append(ls.puts, interval{p.start, p.end})
	}
	movesBy := make(map[string][]moveRec)
	for _, m := range f.moves.recs {
		movesBy[m.session] = append(movesBy[m.session], m)
		ms := float64(m.end-m.start) / 1e6
		if m.out {
			ls.migrateOutMs = append(ls.migrateOutMs, ms)
		} else {
			ls.adoptMs = append(ls.adoptMs, ms)
		}
	}

	for _, s := range ph.sessions {
		if len(s.taps) == 0 || s.taps[0].helloStart == 0 {
			continue
		}
		last := s.taps[len(s.taps)-1]
		end := last.shutdownEnd
		if end == 0 {
			continue
		}
		root := log.add(0, "session", s.id, 0, s.taps[0].helloStart, end)

		puts := putsBy[s.id]
		sort.Slice(puts, func(i, j int) bool { return puts[i].start < puts[j].start })
		nextPut := 0

		repTaps := f.taps.of(s.id)
		joined := 0 // UE taps that got an ack pair up, in order, with the replica-side taps
		var lastGrad int64
		for _, t := range s.taps {
			if t.ackEnd == 0 {
				continue // the dial was severed before a replica answered
			}
			log.add(root, "join", s.id, 0, t.helloStart, t.ackEnd)
			var svc map[uint32]svcRec
			if joined < len(repTaps) {
				recs := repTaps[joined].records()
				svc = make(map[uint32]svcRec, len(recs))
				for _, r := range recs {
					svc[r.step] = r
				}
			}
			joined++
			if lastGrad != 0 && len(t.rounds) > 0 {
				log.add(root, "resume_gap", s.id, t.rounds[0].step, lastGrad, t.rounds[0].reqEnd)
			}
			for i, r := range t.rounds {
				roundEnd := r.bwdEnd
				if i+1 < len(t.rounds) {
					roundEnd = t.rounds[i+1].reqEnd
				} else if t.shutdownEnd != 0 {
					roundEnd = t.shutdownEnd
				}
				round := log.add(root, "round", s.id, r.step, r.reqEnd, roundEnd)
				log.add(round, "ue.fwd", s.id, r.step, r.reqEnd, r.wStart)
				serve := log.add(round, "serve", s.id, r.step, r.wStart, r.gFirst)
				switch rec, ok := svc[r.step]; {
				case f.co == nil:
					// Straight onto the BS: the UE writes into the replica's
					// own connection, so the round is the service.
					log.add(serve, "bs.service", s.id, r.step, r.wStart, r.gFirst)
					ls.bsServiceMs = append(ls.bsServiceMs, float64(r.gFirst-r.wStart)/1e6)
				case ok:
					log.add(serve, "relay.up", s.id, r.step, r.wStart, rec.handed)
					log.add(serve, "bs.service", s.id, r.step, rec.handed, rec.gradOut)
					log.add(serve, "relay.down", s.id, r.step, rec.gradOut, r.gFirst)
					ls.bsServiceMs = append(ls.bsServiceMs, float64(rec.gradOut-rec.handed)/1e6)
					ls.relayRttUs = append(ls.relayRttUs, float64((rec.handed-r.wStart)+(r.gFirst-rec.gradOut))/1e3)
				default:
					ls.unmatched++
				}
				log.add(round, "ue.bwd", s.id, r.step, r.gEnd, r.bwdEnd)
				for nextPut < len(puts) && puts[nextPut].start < roundEnd {
					p := puts[nextPut]
					parent := round
					if p.start < r.reqEnd {
						parent = root // between incarnations: the adopting replica's write
					}
					log.add(parent, "store.put", s.id, uint32(p.step), p.start, p.end)
					nextPut++
				}
				lastGrad = r.gEnd
			}
		}
		for ; nextPut < len(puts); nextPut++ {
			p := puts[nextPut]
			log.add(root, "store.put", s.id, uint32(p.step), p.start, p.end)
		}
		if s.move != nil {
			mig := log.add(root, "migrate", s.id, 0, s.move.start, s.move.end)
			for _, m := range movesBy[s.id] {
				name := "adopt"
				if m.out {
					name = "migrate_out"
				}
				log.add(mig, name, s.id, 0, m.start, m.end)
			}
		}
	}
	return log, ls
}
