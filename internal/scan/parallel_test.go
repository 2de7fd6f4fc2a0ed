package scan

import (
	"testing"

	"ace/internal/frontend"
	"ace/internal/geom"
)

// TestRouteLabels: strict containment goes to a band, exact cut hits go
// to the seam.
func TestRouteLabels(t *testing.T) {
	cuts := []int64{100, 0}
	labels := []frontend.Label{
		{Name: "top", At: geom.Pt(0, 500)},
		{Name: "seam0", At: geom.Pt(0, 100)},
		{Name: "mid", At: geom.Pt(0, 50)},
		{Name: "seam1", At: geom.Pt(0, 0)},
		{Name: "bot", At: geom.Pt(0, -50)},
	}
	byBand, bySeam := routeLabels(labels, cuts)
	got := func(ls []frontend.Label) string {
		if len(ls) != 1 {
			return ""
		}
		return ls[0].Name
	}
	if got(byBand[0]) != "top" || got(byBand[1]) != "mid" || got(byBand[2]) != "bot" {
		t.Errorf("band routing wrong: %v", byBand)
	}
	if got(bySeam[0]) != "seam0" || got(bySeam[1]) != "seam1" {
		t.Errorf("seam routing wrong: %v", bySeam)
	}
}
