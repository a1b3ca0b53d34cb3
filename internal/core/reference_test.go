package core

// Reference forms of MAGUS's Algorithms 1 and 2 over plain slices. The
// runtime evaluates the same arithmetic over its ring buffers; the
// tests pin it to these.

// PredictTrend is Algorithm 1 over a slice in FIFO order; see
// predictTrendRing for the algorithm.
func PredictTrend(hist []float64, derivLen int, incGBs, decGBs float64) Trend {
	n := len(hist) - 1
	if n < 1 {
		return TrendFlat
	}
	if derivLen > n {
		derivLen = n
	}
	for span := 1; span <= derivLen; span++ {
		d := (hist[n] - hist[n-span]) / float64(span)
		switch {
		case d > incGBs:
			return TrendUp
		case d < -decGBs:
			return TrendDown
		}
	}
	return TrendFlat
}

// HighFrequency is Algorithm 2: the fraction of recent cycles that
// produced a tuning decision, compared against the threshold.
//
// This slice form is the reference; the runtime maintains the non-zero
// count incrementally as entries enter and leave the tune log
// (pushTune), so the per-invoke check is O(1) with no Snapshot.
func HighFrequency(tuneLog []int, threshold float64) bool {
	if len(tuneLog) == 0 {
		return false
	}
	s := 0
	for _, v := range tuneLog {
		if v != 0 {
			s++
		}
	}
	return float64(s)/float64(len(tuneLog)) >= threshold
}
