package workload

import "time"

// Builtins returns the built-in scenario family: a quiet baseline, the
// section-5.1 reclaim regime, and a bursty diurnal pool with churn and
// an owner-return wave. All three are bounded (MaxJobs per cohort) so a
// sweep cell runs in well under a second.
func Builtins() []*Spec {
	return []*Spec{
		{
			Name:    "steady",
			Horizon: 40 * time.Minute,
			Cohorts: []Cohort{
				{
					Name: "cfd", Weight: 2,
					Arrivals: Arrivals{Process: Poisson, MeanGap: 5 * time.Minute},
					Jobs: JobDist{
						Shapes: []ShapeChoice{
							{Method: "lb2d", JX: 4, JY: 2, Weight: 3},
							{Method: "lb2d", JX: 5, JY: 4, Weight: 1},
						},
						SideMin: 20, SideMax: 40,
						Steps: StepsDist{Median: 6000, Sigma: 0.4},
					},
					Priorities: []IntChoice{{Value: 1, Weight: 1}},
					MaxJobs:    6,
				},
				{
					Name: "cal",
					Arrivals: Arrivals{Process: Gamma, MeanGap: 8 * time.Minute,
						Shape: 2, Start: 2 * time.Minute},
					Jobs: JobDist{
						Shapes:  []ShapeChoice{{Method: "fd2d", JX: 3, JY: 3}},
						SideMin: 40, SideMax: 64,
						Steps: StepsDist{Median: 8000, Sigma: 0.3},
					},
					MaxJobs: 4,
				},
			},
		},
		{
			Name:    "storm",
			Horizon: 40 * time.Minute,
			Cohorts: []Cohort{
				{
					Name: "cfd", Weight: 2,
					Arrivals: Arrivals{Process: Poisson, MeanGap: 3 * time.Minute},
					Jobs: JobDist{
						Shapes: []ShapeChoice{
							{Method: "lb2d", JX: 4, JY: 3, Weight: 2},
							{Method: "lb3d", JX: 2, JY: 2, JZ: 2, Weight: 1},
						},
						SideMin: 16, SideMax: 32,
						Steps: StepsDist{Median: 5000, Sigma: 0.5},
					},
					Priorities: []IntChoice{{Value: 1, Weight: 3}, {Value: 5, Weight: 1}},
					MaxJobs:    7,
				},
			},
			Scenario: &Scenario{
				Every: time.Minute,
				Events: []Event{
					{Kind: ReclaimStorm, At: 8 * time.Minute, Until: 23 * time.Minute,
						Every: 5 * time.Minute, Hosts: 2, Dwell: 4 * time.Minute},
				},
			},
		},
		{
			Name:    "diurnal-churn",
			Horizon: time.Hour,
			Cohorts: []Cohort{
				{
					Name: "night", Weight: 1,
					Arrivals: Arrivals{Process: Weibull, MeanGap: 6 * time.Minute,
						Shape: 0.7, Diurnal: []float64{2, 1, 0.5, 1}, Day: time.Hour},
					Jobs: JobDist{
						Shapes: []ShapeChoice{
							{Method: "fd2d", JX: 4, JY: 3, Weight: 1},
							{Method: "lb2d", JX: 3, JY: 3, Weight: 1},
						},
						SideMin: 20, SideMax: 30,
						Steps: StepsDist{Median: 4000, Sigma: 0.6},
					},
					MaxJobs: 8,
				},
			},
			Scenario: &Scenario{
				Every: time.Minute,
				Events: []Event{
					{Kind: HostChurn, At: 5 * time.Minute, Until: 50 * time.Minute,
						Every: 15 * time.Minute, Hosts: 3},
					{Kind: OwnerReturn, At: 30 * time.Minute, Hosts: 4, Dwell: 10 * time.Minute},
				},
			},
		},
	}
}
