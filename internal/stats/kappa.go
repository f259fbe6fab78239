package stats

import (
	"errors"
	"sort"
)

// ErrLengthMismatch is returned when two annotation sequences differ in
// length.
var ErrLengthMismatch = errors.New("stats: annotation sequences differ in length")

// CohensKappa computes Cohen's kappa for two annotators' categorical
// labels — the chance-corrected inter-annotator agreement used to validate
// coding schemes like the screenshot codebook of Section VI.
func CohensKappa(a, b []string) (float64, error) {
	if len(a) != len(b) {
		return 0, ErrLengthMismatch
	}
	n := len(a)
	if n == 0 {
		return 0, errors.New("stats: empty annotation sequences")
	}
	agree := 0
	countA := make(map[string]int)
	countB := make(map[string]int)
	for i := 0; i < n; i++ {
		if a[i] == b[i] {
			agree++
		}
		countA[a[i]]++
		countB[b[i]]++
	}
	po := float64(agree) / float64(n)
	// Sum the chance agreement in sorted label order: float addition is
	// not associative, so map order would move kappa's last bit between
	// calls.
	labels := make([]string, 0, len(countA))
	for label := range countA {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	var pe float64
	for _, label := range labels {
		pe += float64(countA[label]) / float64(n) * float64(countB[label]) / float64(n)
	}
	if pe == 1 {
		// Both annotators used a single identical label: perfect but
		// degenerate agreement.
		return 1, nil
	}
	return (po - pe) / (1 - pe), nil
}

// KappaInterpretation maps a kappa value to the conventional Landis-Koch
// band.
func KappaInterpretation(k float64) string {
	switch {
	case k >= 0.81:
		return "almost perfect"
	case k >= 0.61:
		return "substantial"
	case k >= 0.41:
		return "moderate"
	case k >= 0.21:
		return "fair"
	case k > 0:
		return "slight"
	default:
		return "poor"
	}
}
