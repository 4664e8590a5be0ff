// Package scene is the synthetic substitute for the paper's measurement
// campaign (a 60.48 GHz link repeatedly blocked by pedestrians, observed
// by a Microsoft Kinect depth camera [3,4] — data not public).
//
// It simulates a corridor containing a mmWave transmitter (the UE) and
// receiver (the BS) with pedestrians crossing the line-of-sight path, and
// produces the two modalities the split model consumes:
//
//   - depth images rendered by a pinhole camera co-located with the UE and
//     aimed down the link, and
//   - the received power at the BS, i.e. a LoS level minus a smooth
//     blockage attenuation whenever a body is near the LoS segment, plus
//     correlated shadowing and fast-fading noise.
//
// The property the experiment depends on is preserved by construction:
// a pedestrian enters the camera's field of view while still metres away
// from the LoS line, so the image modality carries advance warning of a
// power drop that the RF trace alone cannot provide.
package scene

import (
	"fmt"
	"math"
	"math/rand"
)

// Vec3 is a point in corridor coordinates: x along the link (BS at x=0,
// UE at x=Config.LinkLength), y across the corridor, z up.
type Vec3 struct{ X, Y, Z float64 }

// Pedestrian is one walker crossing the corridor.
type Pedestrian struct {
	CrossX    float64 // x-coordinate where the walker crosses the LoS line
	StartY    float64 // entry y (±CorridorHalfWidth)
	Direction float64 // -1 or +1: sign of dy/dt
	SpeedMPS  float64
	EnterTime float64 // simulation time at which the walker enters
	Radius    float64 // body radius (m)
	Height    float64 // body height (m)
}

// PositionAt returns the walker's centre position at time t and whether
// the walker is inside the corridor.
func (p *Pedestrian) PositionAt(t float64) (Vec3, bool) {
	dt := t - p.EnterTime
	if dt < 0 {
		return Vec3{}, false
	}
	y := p.StartY + p.Direction*p.SpeedMPS*dt
	if math.Abs(y) > math.Abs(p.StartY) {
		return Vec3{}, false
	}
	return Vec3{X: p.CrossX, Y: y, Z: p.Height / 2}, true
}

// ExitTime returns the time the walker leaves the corridor.
func (p *Pedestrian) ExitTime() float64 {
	return p.EnterTime + 2*math.Abs(p.StartY)/p.SpeedMPS
}

// Config describes the corridor, the link, the camera, and the blockage
// statistics. Defaults (via DefaultConfig) are chosen so that power traces
// match Fig. 3b's dynamic range (≈ −20 dBm LoS, drops to ≈ −45 dBm).
type Config struct {
	// Geometry.
	LinkLength        float64 // BS–UE distance r (paper: 4 m)
	CorridorHalfWidth float64 // walkers travel from ±this y to ∓
	LinkHeight        float64 // antenna height (m)

	// Pedestrian statistics.
	MeanInterarrival float64 // mean seconds between walker entries
	SpeedMin         float64
	SpeedMax         float64
	CrossXMin        float64 // walkers cross the LoS between these x
	CrossXMax        float64
	BodyRadius       float64
	BodyHeight       float64

	// Radio.
	LoSPowerDBm     float64 // unblocked received power
	BlockageLossDB  float64 // maximum attenuation of one body on the LoS
	TransitionWidth float64 // metres over which attenuation ramps (soft knife edge)
	ShadowSigmaDB   float64 // std-dev of slow correlated shadowing
	ShadowCorr      float64 // AR(1) coefficient per frame for shadowing
	FastSigmaDB     float64 // std-dev of i.i.d. fast fading (dB)

	// Camera (pinhole, at the UE end looking toward the BS along −x).
	CameraPos   Vec3
	ImageH      int     // N_H (paper: 40)
	ImageW      int     // N_W (paper: 40)
	FocalPixels float64 // focal length in pixel units
	MaxRangeM   float64 // depth clamp; beyond this the image saturates
	PixelNoise  float64 // per-pixel Gaussian noise on normalised depth
}

// DefaultConfig returns the configuration used throughout the
// reproduction.
func DefaultConfig() Config {
	return Config{
		LinkLength:        4.0,
		CorridorHalfWidth: 3.0,
		LinkHeight:        1.0,

		MeanInterarrival: 4.0,
		SpeedMin:         0.8,
		SpeedMax:         1.4,
		CrossXMin:        1.0,
		CrossXMax:        2.6,
		BodyRadius:       0.25,
		BodyHeight:       1.75,

		// TransitionWidth is deliberately short: at walking speed the
		// LoS→non-LoS ramp then lasts well under the 120 ms prediction
		// horizon, reproducing the paper's premise that "the sudden
		// variation of power levels gives almost no prior indications in
		// the RF signal domain". The camera, by contrast, sees a walker
		// seconds before it reaches the LoS.
		LoSPowerDBm:     -20.0,
		BlockageLossDB:  25.0,
		TransitionWidth: 0.025,
		ShadowSigmaDB:   0.6,
		ShadowCorr:      0.97,
		FastSigmaDB:     0.35,

		// FocalPixels sets the field of view. It is deliberately narrow
		// (±18°): a walker becomes visible only a few hundred
		// milliseconds before it reaches the LoS. This is what makes even
		// the 1-pixel (globally averaged) CNN output predictive — global
		// average pooling is translation-invariant, so with a wide FOV a
		// single pixel could signal a walker's presence but never its
		// timing. The paper's Kinect similarly viewed the link corridor.
		CameraPos:   Vec3{X: 4.3, Y: 0, Z: 1.4},
		ImageH:      40,
		ImageW:      40,
		FocalPixels: 60,
		MaxRangeM:   6.0,
		PixelNoise:  0.01,
	}
}

// Validate reports the first configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.LinkLength <= 0:
		return fmt.Errorf("scene: non-positive link length %g", c.LinkLength)
	case c.ImageH <= 0 || c.ImageW <= 0:
		return fmt.Errorf("scene: non-positive image size %dx%d", c.ImageH, c.ImageW)
	case c.MeanInterarrival <= 0:
		return fmt.Errorf("scene: non-positive inter-arrival %g", c.MeanInterarrival)
	case c.SpeedMin <= 0 || c.SpeedMax < c.SpeedMin:
		return fmt.Errorf("scene: bad speed range [%g, %g]", c.SpeedMin, c.SpeedMax)
	case c.CrossXMin < 0 || c.CrossXMax > c.LinkLength || c.CrossXMax < c.CrossXMin:
		return fmt.Errorf("scene: crossing band [%g, %g] outside link [0, %g]",
			c.CrossXMin, c.CrossXMax, c.LinkLength)
	case c.MaxRangeM <= 0:
		return fmt.Errorf("scene: non-positive max range %g", c.MaxRangeM)
	}
	return nil
}

// Scene evolves pedestrians over time and renders both modalities.
//
// The three stochastic aspects — pedestrian arrivals, radio noise, and
// camera pixel noise — draw from independent substreams derived from the
// seed RNG. Two scenes with the same seed therefore produce identical
// walker trajectories even if their callers interleave power samples and
// depth renders differently.
type Scene struct {
	cfg Config

	arrivalRNG *rand.Rand
	radioRNG   *rand.Rand
	pixelRNG   *rand.Rand

	walkers     []*Pedestrian
	nextArrival float64
	shadowDB    float64 // AR(1) shadowing state

	vis []visible // RenderDepthInto's scratch, reused across frames
}

// visible is a walker in front of the camera at render time.
type visible struct {
	pos  Vec3
	w    *Pedestrian
	dist float64
}

// New returns a scene with the given config; rng seeds the internal
// substreams.
func New(cfg Config, rng *rand.Rand) (*Scene, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("scene: nil RNG")
	}
	s := &Scene{
		cfg:        cfg,
		arrivalRNG: rand.New(rand.NewSource(rng.Int63())),
		radioRNG:   rand.New(rand.NewSource(rng.Int63())),
		pixelRNG:   rand.New(rand.NewSource(rng.Int63())),
	}
	s.nextArrival = s.arrivalRNG.ExpFloat64() * cfg.MeanInterarrival
	return s, nil
}

// Advance moves simulation time forward to t: spawns newly arrived
// pedestrians and retires those that left the corridor.
func (s *Scene) Advance(t float64) {
	for s.nextArrival <= t {
		s.spawn(s.nextArrival)
		s.nextArrival += s.arrivalRNG.ExpFloat64() * s.cfg.MeanInterarrival
	}
	alive := s.walkers[:0]
	for _, w := range s.walkers {
		if w.ExitTime() > t {
			alive = append(alive, w)
		}
	}
	s.walkers = alive
}

func (s *Scene) spawn(t float64) {
	c := s.cfg
	dir := 1.0
	startY := -c.CorridorHalfWidth
	if s.arrivalRNG.Intn(2) == 0 {
		dir, startY = -1.0, c.CorridorHalfWidth
	}
	s.walkers = append(s.walkers, &Pedestrian{
		CrossX:    c.CrossXMin + s.arrivalRNG.Float64()*(c.CrossXMax-c.CrossXMin),
		StartY:    startY,
		Direction: dir,
		SpeedMPS:  c.SpeedMin + s.arrivalRNG.Float64()*(c.SpeedMax-c.SpeedMin),
		EnterTime: t,
		Radius:    c.BodyRadius,
		Height:    c.BodyHeight,
	})
}

// Walkers returns the currently active pedestrians (for tests and
// visualisation).
func (s *Scene) Walkers() []*Pedestrian { return s.walkers }

// BlockageLossDB returns the total blockage attenuation at time t: for
// each walker, a soft knife-edge ramp of the distance between the body
// axis and the LoS segment.
func (s *Scene) BlockageLossDB(t float64) float64 {
	c := s.cfg
	total := 0.0
	for _, w := range s.walkers {
		pos, ok := w.PositionAt(t)
		if !ok {
			continue
		}
		// The LoS runs along y = 0 for x ∈ [0, LinkLength]; the walker
		// crosses at fixed x inside that band, so the axis distance to the
		// LoS is simply |y|.
		d := math.Abs(pos.Y)
		// Soft knife edge: full loss when the body axis is on the LoS,
		// decaying over TransitionWidth beyond the body radius.
		excess := d - w.Radius
		var frac float64
		switch {
		case excess <= 0:
			frac = 1
		default:
			frac = math.Exp(-excess * excess / (2 * c.TransitionWidth * c.TransitionWidth))
		}
		total += c.BlockageLossDB * frac
	}
	return total
}

// ReceivedPowerDBm returns the received power at time t, advancing the
// correlated shadowing state by one frame. Call once per frame in
// chronological order.
func (s *Scene) ReceivedPowerDBm(t float64) float64 {
	c := s.cfg
	s.shadowDB = c.ShadowCorr*s.shadowDB +
		math.Sqrt(1-c.ShadowCorr*c.ShadowCorr)*c.ShadowSigmaDB*s.radioRNG.NormFloat64()
	fast := c.FastSigmaDB * s.radioRNG.NormFloat64()
	return c.LoSPowerDBm - s.BlockageLossDB(t) + s.shadowDB + fast
}

// RenderDepth renders the camera's normalised depth image at time t into
// a freshly allocated row-major (ImageH × ImageW) slice. Values are in
// [0, 1] with 0 = at/beyond MaxRangeM and 1 = at the camera; pedestrians
// therefore appear as bright silhouettes against a dark background, the
// usual depth-image visualisation (cf. the paper's Fig. 2).
func (s *Scene) RenderDepth(t float64) []float64 {
	img := make([]float64, s.cfg.ImageH*s.cfg.ImageW)
	s.RenderDepthInto(img, t)
	return img
}

// RenderDepthInto is RenderDepth into img, which must hold ImageH·ImageW
// values; every value is overwritten. It allocates nothing once the
// scene has rendered its largest crowd.
func (s *Scene) RenderDepthInto(img []float64, t float64) {
	c := s.cfg
	if len(img) != c.ImageH*c.ImageW {
		panic(fmt.Sprintf("scene: depth image of %d values, want %d×%d", len(img), c.ImageH, c.ImageW))
	}

	// Background: far wall behind the BS.
	wallDepth := c.CameraPos.X + 0.7
	bg := normDepth(wallDepth, c.MaxRangeM)
	for i := range img {
		img[i] = bg
	}

	// Painter's algorithm: render walkers far → near.
	vis := s.vis[:0]
	for _, w := range s.walkers {
		pos, ok := w.PositionAt(t)
		if !ok {
			continue
		}
		dist := c.CameraPos.X - pos.X // distance along the optical axis
		if dist <= 0.3 {              // behind or on top of the camera
			continue
		}
		vis = append(vis, visible{pos, w, dist})
	}
	s.vis = vis
	for i := 0; i < len(vis); i++ { // insertion sort by distance, desc
		for j := i; j > 0 && vis[j].dist > vis[j-1].dist; j-- {
			vis[j], vis[j-1] = vis[j-1], vis[j]
		}
	}

	cx := float64(c.ImageW) / 2
	cy := float64(c.ImageH) / 2
	for _, v := range vis {
		// Project the body's bounding box. Horizontal: centre ± radius;
		// vertical: ground to body height.
		u0 := cx + c.FocalPixels*(v.pos.Y-v.w.Radius-c.CameraPos.Y)/v.dist
		u1 := cx + c.FocalPixels*(v.pos.Y+v.w.Radius-c.CameraPos.Y)/v.dist
		// Image v grows downward; world z grows upward.
		vTop := cy - c.FocalPixels*(v.w.Height-c.CameraPos.Z)/v.dist
		vBot := cy - c.FocalPixels*(0-c.CameraPos.Z)/v.dist
		depth := normDepth(v.dist, c.MaxRangeM)

		for py := int(math.Floor(vTop)); py <= int(math.Ceil(vBot)); py++ {
			if py < 0 || py >= c.ImageH {
				continue
			}
			for px := int(math.Floor(u0)); px <= int(math.Ceil(u1)); px++ {
				if px < 0 || px >= c.ImageW {
					continue
				}
				// Rounded body: shrink towards the vertical edges to
				// approximate a cylinder silhouette.
				du := (float64(px) - (u0+u1)/2) / ((u1 - u0) / 2)
				if du < -1 || du > 1 {
					continue
				}
				img[py*c.ImageW+px] = depth
			}
		}
	}

	if c.PixelNoise > 0 {
		for i := range img {
			img[i] += c.PixelNoise * s.pixelRNG.NormFloat64()
			if img[i] < 0 {
				img[i] = 0
			} else if img[i] > 1 {
				img[i] = 1
			}
		}
	}
}

// normDepth maps a metric depth to the [0, 1] image value (near = bright).
func normDepth(d, maxRange float64) float64 {
	if d >= maxRange {
		return 0
	}
	if d <= 0 {
		return 1
	}
	return 1 - d/maxRange
}
