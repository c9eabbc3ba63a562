package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"kset"
)

// The wire probe runs Figure 2 instances (n=6) over the matrix
// transport, PipeWire and real loopback datagrams.
var wireParams = kset.Params{N: 6, T: 3, K: 2, D: 1, L: 1}

const (
	wireM      = 4
	wireWarmup = 32 // UDP instances run at set-up, after binding the sockets
	// wireRoundTimeout is far above any loopback delivery time, so a
	// copy written off as lost is a fault, never a slow scheduler.
	wireRoundTimeout = 10 * time.Second
)

// wireSession holds the UDP-loopback system and its matrix twin.
type wireSession struct {
	seed    int64
	udp     *kset.System
	matrix  *kset.System
	crashes kset.FailureFamily
}

func newWireSystem(tf kset.TransportFactory) (*kset.System, error) {
	p := wireParams
	cond, err := kset.NewMaxCondition(p.N, wireM, p.X(), p.L)
	if err != nil {
		return nil, err
	}
	opts := []kset.Option{kset.WithParams(p), kset.WithCondition(cond)}
	if tf != nil {
		opts = append(opts, kset.WithTransport(tf))
	}
	return kset.New(opts...)
}

func setupWire(seed int64) (*wireSession, error) {
	udp, err := newWireSystem(kset.UDPLoopback(kset.WireConfig{RoundTimeout: wireRoundTimeout, Seed: uint64(seed)}))
	if err != nil {
		return nil, err
	}
	matrix, err := newWireSystem(nil)
	if err != nil {
		return nil, err
	}
	s := &wireSession{
		seed:    seed,
		udp:     udp,
		matrix:  matrix,
		crashes: wireCrashes(seed),
	}
	// The first instance binds the sockets.
	for i := 0; i < wireWarmup; i++ {
		res, err := udp.RunScenario(context.Background(), s.scenario(i))
		if err == nil && res.Lost > 0 {
			err = fmt.Errorf("%d copies lost on loopback", res.Lost)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

// wireCrashes is the crash family the wire probe's scenarios draw from.
func wireCrashes(seed int64) kset.FailureFamily {
	p := wireParams
	return kset.RandomCrashFamily(mix(seed, -3), p.N, p.T, p.RMax(), 1<<16)
}

// scenario is instance i's input and crash pattern.
func (s *wireSession) scenario(i int) kset.Scenario {
	p := wireParams
	rng := rand.New(rand.NewSource(mix(s.seed, i)))
	in := make(kset.Vector, p.N)
	for j := range in {
		in[j] = kset.Value(1 + rng.Intn(wireM))
	}
	return kset.Scenario{Input: in, FP: s.crashes.Pattern(i % s.crashes.Size())}
}
