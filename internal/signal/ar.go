// Package signal implements autoregressive (AR) all-pole signal
// modeling — the paper's core instrument. Procedure 1 fits an AR model
// to each window of ratings with the covariance method (Hayes,
// Statistical Digital Signal Processing and Modeling, 1996; the Matlab
// covm the paper cites) and reads the normalized model error: honest
// ratings are noise-like and model poorly (high error), collaborative
// ratings inject structure and model well (low error).
//
// Yule-Walker (autocorrelation method via Levinson-Durbin) and Burg
// estimators are provided as ablation alternatives.
package signal

import (
	"errors"
	"fmt"

	"repro/internal/mathx"
	"repro/internal/stat"
)

// Method selects the AR parameter estimator.
type Method int

const (
	// MethodCovariance is the covariance method the paper uses: exact
	// least-squares prediction over the window, no windowing bias.
	MethodCovariance Method = iota + 1
	// MethodYuleWalker is the autocorrelation method solved with
	// Levinson-Durbin; guaranteed stable, biased on short windows.
	MethodYuleWalker
	// MethodBurg is Burg's harmonic-mean lattice estimator; stable and
	// accurate on short windows.
	MethodBurg
)

// String returns the estimator name.
func (m Method) String() string {
	switch m {
	case MethodCovariance:
		return "covariance"
	case MethodYuleWalker:
		return "yule-walker"
	case MethodBurg:
		return "burg"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// ErrTooShort is returned when a window has too few samples for the
// requested model order.
var ErrTooShort = errors.New("signal: window too short for model order")

// Options controls an AR fit.
type Options struct {
	// Method selects the estimator. Zero value means MethodCovariance.
	Method Method
	// Demean subtracts the window mean before fitting. The paper's
	// Matlab pipeline fits raw ratings (a near-DC signal), which is what
	// produces its small absolute error values; demeaning is the
	// theoretically cleaner x(t)−E[x(t)] view and is offered for the
	// ablation bench.
	Demean bool
	// Ridge is the relative diagonal loading applied to the covariance
	// normal equations (λ = Ridge·c(0,0)), which keeps degenerate
	// windows solvable. Zero means the default 1e-9.
	Ridge float64
}

// Model is a fitted all-pole model. The full coefficient vector is
// [1, Coeffs[0], ..., Coeffs[p-1]] as in Procedure 1's
// a = [1, a(1), ..., a(p)].
type Model struct {
	Method Method
	Order  int
	// Coeffs holds a(1..p).
	Coeffs []float64
	// ErrPower is the residual prediction-error power (sum of squared
	// residuals for covariance/Burg, model error power for Yule-Walker).
	ErrPower float64
	// NormalizedError is the paper's e(k) in (0, 1]: residual energy
	// divided by signal energy. Low values mean the window is highly
	// predictable — the collusion signature.
	NormalizedError float64
	// Energy is the signal energy the error was normalized by.
	Energy float64
}

// Workspace holds the scratch one AR fit needs — the covariance
// normal-equation matrix, its right-hand side, the solver scratch, and
// the demean/Burg residual buffers — so that a caller fitting thousands
// of windows (the detector hot path) allocates only each fit's returned
// coefficient slice. The zero value is ready to use; buffers grow on
// first use and are reused afterwards.
//
// A Workspace is not safe for concurrent use: one Workspace per
// goroutine, never shared (parallel.MapLocal builds exactly that).
type Workspace struct {
	order int
	c     [][]float64 // (p+1)×(p+1) covariance entries c(j,k)
	cback []float64
	a     [][]float64 // p×p normal matrix
	aback []float64
	b, x  []float64 // RHS and solution
	solve mathx.SolveWorkspace

	demeaned []float64 // demean scratch
	bf, bb   []float64 // Burg forward/backward residuals
	bprev    []float64 // Burg previous-order coefficients
	bcur     []float64 // Burg current-order coefficients
}

// ensureOrder shapes the order-dependent buffers, allocating only when
// the model order changes.
func (ws *Workspace) ensureOrder(p int) {
	if ws.order == p && ws.c != nil {
		return
	}
	ws.cback = growFloats(ws.cback, (p+1)*(p+1))
	ws.c = shapeMatrix(ws.c, ws.cback, p+1)
	ws.aback = growFloats(ws.aback, p*p)
	ws.a = shapeMatrix(ws.a, ws.aback, p)
	ws.b = growFloats(ws.b, p)
	ws.x = growFloats(ws.x, p)
	ws.order = p
}

// growFloats returns a length-n slice, reusing buf's backing array when
// it is large enough.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// shapeMatrix carves n rows of n columns out of back, reusing the row
// header slice when possible.
func shapeMatrix(rows [][]float64, back []float64, n int) [][]float64 {
	if cap(rows) < n {
		rows = make([][]float64, n)
	}
	rows = rows[:n]
	for i := range rows {
		rows[i] = back[i*n : (i+1)*n : (i+1)*n]
	}
	return rows
}

// Fit estimates an AR(p) model of x using opts. The window must contain
// at least 2p+1 samples (covariance/Burg) or p+1 samples (Yule-Walker);
// shorter windows return ErrTooShort.
func Fit(x []float64, order int, opts Options) (Model, error) {
	return FitWS(x, order, opts, nil)
}

// FitWS is Fit with an explicit scratch workspace: repeated fits through
// the same Workspace allocate only each Model's coefficient slice. A nil
// ws uses a transient workspace (exactly Fit's behavior). The numbers
// produced are bit-identical to Fit's.
func FitWS(x []float64, order int, opts Options, ws *Workspace) (Model, error) {
	if order < 1 {
		return Model{}, fmt.Errorf("signal: model order %d", order)
	}
	method := opts.Method
	if method == 0 {
		method = MethodCovariance
	}
	if ws == nil {
		ws = &Workspace{}
	}
	work := x
	if opts.Demean {
		ws.demeaned = growFloats(ws.demeaned, len(x))
		m := stat.Mean(x)
		for i, v := range x {
			ws.demeaned[i] = v - m
		}
		work = ws.demeaned
	}
	switch method {
	case MethodCovariance:
		return fitCovariance(work, order, opts.Ridge, ws)
	case MethodYuleWalker:
		return fitYuleWalker(work, order)
	case MethodBurg:
		return fitBurg(work, order, ws)
	default:
		return Model{}, fmt.Errorf("signal: unknown method %d", int(method))
	}
}

// fitCovariance implements the covariance method: minimize
// Σ_{n=p}^{N-1} (x(n) + Σ_k a(k) x(n−k))² exactly, by solving the
// covariance normal equations Σ_k a(k) c(j,k) = −c(j,0), j = 1..p with
// c(j,k) = Σ_{n=p}^{N-1} x(n−j) x(n−k).
func fitCovariance(x []float64, p int, ridge float64, ws *Workspace) (Model, error) {
	n := len(x)
	if n < 2*p+1 {
		return Model{}, fmt.Errorf("covariance order %d with %d samples: %w", p, n, ErrTooShort)
	}
	if ridge <= 0 {
		ridge = 1e-9
	}
	ws.ensureOrder(p)

	// c[j][k] for j,k in 0..p.
	c := ws.c
	for j := 0; j <= p; j++ {
		for k := j; k <= p; k++ {
			var s float64
			for i := p; i < n; i++ {
				s += x[i-j] * x[i-k]
			}
			c[j][k], c[k][j] = s, s
		}
	}

	energy := c[0][0]
	if energy <= 1e-15 {
		// Zero-energy window: identically zero signal, perfectly
		// "modelled" by the zero predictor.
		return Model{
			Method: MethodCovariance,
			Order:  p,
			Coeffs: make([]float64, p),
		}, nil
	}

	a, b := ws.a, ws.b
	for j := 1; j <= p; j++ {
		for k := 1; k <= p; k++ {
			a[j-1][k-1] = c[j][k]
		}
		b[j-1] = -c[j][0]
	}
	if err := mathx.RidgeSymSolveInto(ws.x, a, b, ridge*energy, &ws.solve); err != nil {
		return Model{}, fmt.Errorf("covariance normal equations: %w", err)
	}
	coeffs := append(make([]float64, 0, p), ws.x...)

	errPower := energy
	for k := 1; k <= p; k++ {
		errPower += coeffs[k-1] * c[0][k]
	}
	if errPower < 0 {
		errPower = 0
	}
	return Model{
		Method:          MethodCovariance,
		Order:           p,
		Coeffs:          coeffs,
		ErrPower:        errPower,
		NormalizedError: mathx.Clamp(errPower/energy, 0, 1),
		Energy:          energy,
	}, nil
}

func fitYuleWalker(x []float64, p int) (Model, error) {
	n := len(x)
	if n < p+1 {
		return Model{}, fmt.Errorf("yule-walker order %d with %d samples: %w", p, n, ErrTooShort)
	}
	r, err := stat.AutoCorrelation(x, p)
	if err != nil {
		return Model{}, fmt.Errorf("yule-walker autocorrelation: %w", err)
	}
	if r[0] <= 1e-15 {
		return Model{Method: MethodYuleWalker, Order: p, Coeffs: make([]float64, p)}, nil
	}
	coeffs, errPower, _, err := mathx.LevinsonDurbin(r, p)
	if err != nil {
		return Model{}, fmt.Errorf("yule-walker levinson: %w", err)
	}
	return Model{
		Method:          MethodYuleWalker,
		Order:           p,
		Coeffs:          coeffs,
		ErrPower:        errPower,
		NormalizedError: mathx.Clamp(errPower/r[0], 0, 1),
		Energy:          r[0],
	}, nil
}

func fitBurg(x []float64, p int, ws *Workspace) (Model, error) {
	n := len(x)
	if n < 2*p+1 {
		return Model{}, fmt.Errorf("burg order %d with %d samples: %w", p, n, ErrTooShort)
	}
	var energy float64
	for _, v := range x {
		energy += v * v
	}
	if energy <= 1e-15 {
		return Model{Method: MethodBurg, Order: p, Coeffs: make([]float64, p)}, nil
	}

	ws.bf = growFloats(ws.bf, n)
	ws.bb = growFloats(ws.bb, n)
	f := ws.bf
	b := ws.bb
	copy(f, x)
	copy(b, x)
	if cap(ws.bcur) < p {
		ws.bcur = make([]float64, 0, p)
		ws.bprev = make([]float64, 0, p)
	}
	a := ws.bcur[:0]
	e := energy / float64(n)

	for m := 1; m <= p; m++ {
		var num, den float64
		for i := m; i < n; i++ {
			num += f[i] * b[i-1]
			den += f[i]*f[i] + b[i-1]*b[i-1]
		}
		var k float64
		if den > 0 {
			k = -2 * num / den
		}
		// a_new(i) = a(i) + k a(m−i), with a(m) = k.
		prev := append(ws.bprev[:0], a...)
		a = append(a, k)
		for i := 1; i < m; i++ {
			a[i-1] = prev[i-1] + k*prev[m-i-1]
		}
		// Update forward/backward residuals (descending keeps b(n−1)
		// unread-after-write).
		for i := n - 1; i >= m; i-- {
			fi := f[i]
			f[i] = fi + k*b[i-1]
			b[i] = b[i-1] + k*fi
		}
		e *= 1 - k*k
	}
	ws.bcur = a[:0]
	meanEnergy := energy / float64(n)
	return Model{
		Method:          MethodBurg,
		Order:           p,
		Coeffs:          append(make([]float64, 0, p), a...),
		ErrPower:        e,
		NormalizedError: mathx.Clamp(e/meanEnergy, 0, 1),
		Energy:          meanEnergy,
	}, nil
}

// MinSamples returns the minimum window length Fit accepts for the
// given method and order.
func MinSamples(m Method, order int) int {
	if m == MethodYuleWalker {
		return order + 1
	}
	return 2*order + 1
}
