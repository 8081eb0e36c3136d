package obs

import "testing"

func TestHeatmapEmptyWindow(t *testing.T) {
	h := NewHeatmap()
	if len(h.Links()) != 0 || len(h.Hottest(5)) != 0 || h.MeanUtilization() != 0 {
		t.Error("a heatmap whose window never closed should report no links")
	}
}

func TestHeatRuneBounds(t *testing.T) {
	if heatRune(-0.5) != heatRunes[0] {
		t.Error("negative utilization not clamped")
	}
	if heatRune(2.0) != heatRunes[len(heatRunes)-1] {
		t.Error("overload not clamped")
	}
}
