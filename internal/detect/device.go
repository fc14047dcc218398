package detect

import (
	"fmt"
)

// Device is the per-device composite of Section III-A: one detector per
// consumed service, with the abnormal flag a_k(j) true as soon as any
// service's QoS variation is abnormal.
type Device struct {
	detectors []Detector
}

// NewDevice builds a composite for d services, constructing one detector
// per service with the factory. d must be positive.
func NewDevice(d int, factory func(service int) (Detector, error)) (*Device, error) {
	if d <= 0 {
		return nil, fmt.Errorf("d = %d services: %w", d, ErrDetectorConfig)
	}
	dev := &Device{detectors: make([]Detector, d)}
	for i := 0; i < d; i++ {
		det, err := factory(i)
		if err != nil {
			return nil, fmt.Errorf("service %d: %w", i, err)
		}
		if det == nil {
			return nil, fmt.Errorf("service %d: nil detector: %w", i, ErrDetectorConfig)
		}
		dev.detectors[i] = det
	}
	return dev, nil
}

// Services returns the number of monitored services d.
func (dev *Device) Services() int { return len(dev.detectors) }

// Update consumes the QoS vector of one discrete time and returns a_k(j):
// whether at least one service behaved abnormally. The sample must have
// exactly d coordinates.
func (dev *Device) Update(sample []float64) (bool, error) {
	if len(sample) != len(dev.detectors) {
		return false, fmt.Errorf("sample has %d coords, want %d: %w",
			len(sample), len(dev.detectors), ErrDetectorConfig)
	}
	// Every detector must see its sample, so no short-circuit.
	abnormal := false
	for i, det := range dev.detectors {
		if det.Update(sample[i]) {
			abnormal = true
		}
	}
	return abnormal, nil
}

// Predict returns the per-service predictions as a fresh vector.
func (dev *Device) Predict() []float64 {
	out := make([]float64, len(dev.detectors))
	for i, det := range dev.detectors {
		out[i] = det.Predict()
	}
	return out
}

// Reset resets every per-service detector.
func (dev *Device) Reset() {
	for _, det := range dev.detectors {
		det.Reset()
	}
}
