package anomalia

import "anomalia/internal/detect"

// Detector is a single-service error-detection function a_k(j): it learns
// the normal evolution of one QoS series and flags samples that deviate
// abnormally from its prediction. The paper treats the implementation as
// out of scope but cites the families below; all are provided.
//
// Custom implementations are welcome anywhere a Detector is accepted.
type Detector interface {
	// Update consumes the sample of one discrete time and reports whether
	// it is abnormal. A Monitor clamps each report into [0,1] once, at
	// ingest, and feeds Update that clamped value: the same one the
	// window's positions hold, and the one a held device repeats.
	Update(sample float64) bool
	// Predict returns the current one-step-ahead prediction.
	Predict() float64
	// Reset clears all learned state.
	Reset()
}

// NewThresholdDetector flags inter-sample jumps larger than delta — the
// simplest error-detection function.
func NewThresholdDetector(delta float64) (Detector, error) {
	return detect.NewThreshold(delta)
}

// NewEWMADetector tracks an exponentially weighted mean and variance
// (smoothing alpha) and flags samples more than k deviations away, with a
// floor minStd on the deviation estimate and a warmup sample count during
// which nothing is flagged.
func NewEWMADetector(alpha, k, minStd float64, warmup int) (Detector, error) {
	return detect.NewEWMA(alpha, k, minStd, warmup)
}

// NewCUSUMDetector is Page's two-sided cumulative-sum test: drift is the
// per-sample slack, threshold the decision level, alpha the baseline
// smoothing. It accumulates small persistent shifts a jump detector
// misses.
func NewCUSUMDetector(drift, threshold, alpha float64) (Detector, error) {
	return detect.NewCUSUM(drift, threshold, alpha)
}

// NewHoltWintersDetector forecasts with double (level + trend)
// exponential smoothing, optionally with an additive seasonal component
// of the given period (0 disables), and flags samples outside k times the
// running mean absolute deviation around the forecast (floored at
// minBand).
func NewHoltWintersDetector(alpha, beta, gamma, k, minBand float64, period int) (Detector, error) {
	return detect.NewHoltWinters(alpha, beta, gamma, k, minBand, period)
}

// NewKalmanDetector runs a scalar local-level Kalman filter (process
// variance q, observation variance r) and flags samples whose normalized
// innovation exceeds the gate.
func NewKalmanDetector(q, r, gate float64) (Detector, error) {
	return detect.NewKalman(q, r, gate)
}

// NewShewhartDetector is the individuals control chart: dispersion is
// estimated from the mean moving range and samples beyond k sigmas from
// the centre line are flagged, with a floor minMR on the moving-range
// estimate and a warmup sample count.
func NewShewhartDetector(k, minMR float64, warmup int) (Detector, error) {
	return detect.NewShewhart(k, minMR, warmup)
}
