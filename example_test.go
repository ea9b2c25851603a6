package elasticflow_test

import (
	"fmt"
	"math"
	"time"

	elasticflow "github.com/elasticflow/elasticflow"
	"github.com/elasticflow/elasticflow/internal/topology"
)

// Example_admissionControl shows the paper's Fig. 3 motivating example on
// the public API: two jobs with a concave scaling curve both fit on two
// workers, a third is rejected because its deadline cannot be guaranteed.
func Example_admissionControl() {
	sched := elasticflow.NewScheduler(elasticflow.SchedulerOptions{
		SlotSec:        1,
		PowerOfTwo:     true,
		SafetyRescales: -1,
	})
	curve, _ := elasticflow.NewCurveFromPoints(map[int]float64{1: 1, 2: 1.5})
	mk := func(id string, deadline float64) *elasticflow.Job {
		return &elasticflow.Job{
			ID: id, GlobalBatch: 8, TotalIters: 3, Deadline: deadline,
			Class: elasticflow.SLO, Curve: curve, MinGPUs: 1, MaxGPUs: 2,
		}
	}
	a, b, c := mk("A", 3), mk("B", 3.5), mk("C", 3)

	fmt.Println("admit A:", sched.Admit(0, a, nil, 2))
	fmt.Println("admit B:", sched.Admit(0, b, []*elasticflow.Job{a}, 2))
	fmt.Println("admit C:", sched.Admit(0, c, []*elasticflow.Job{a, b}, 2))

	dec := sched.Schedule(0, []*elasticflow.Job{a, b}, 2)
	fmt.Printf("allocation: A=%d B=%d\n", dec.Alloc["A"], dec.Alloc["B"])
	// Output:
	// admit A: true
	// admit B: true
	// admit C: false
	// allocation: A=1 B=1
}

// Example_serverlessPlatform submits a training function the serverless way
// — model, hyperparameters, iterations and a deadline, never a GPU count —
// and reads back the platform's decisions.
func Example_serverlessPlatform() {
	clock := time.Unix(0, 0)
	platform, err := elasticflow.NewPlatform(elasticflow.PlatformOptions{
		Topology: topology.Config{Servers: 2, GPUsPerServer: 8},
		Clock:    func() time.Time { return clock },
	})
	if err != nil {
		panic(err)
	}
	st, err := platform.Submit(elasticflow.SubmitRequest{
		Model:           "resnet50",
		GlobalBatch:     128,
		Iterations:      50_000,
		DeadlineSeconds: 7200,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("state:", st.State)
	fmt.Println("gpus × local =", st.GPUs*st.LocalBatch)
	// Output:
	// state: running
	// gpus × local = 128
}

// Example_minimumSatisfactoryShare computes the §4.1 example: under
// contention, job C's cheapest deadline-meeting plan is 1 GPU now and 4 in
// the next slot.
func Example_minimumSatisfactoryShare() {
	sched := elasticflow.NewScheduler(elasticflow.SchedulerOptions{
		SlotSec: 1, PowerOfTwo: true, SafetyRescales: -1,
	})
	curve, _ := elasticflow.NewCurveFromPoints(map[int]float64{1: 1, 2: 1.5, 4: 2})
	mk := func(id string, iters, deadline float64, minGPUs int) *elasticflow.Job {
		return &elasticflow.Job{
			ID: id, GlobalBatch: 8, TotalIters: iters, Deadline: deadline,
			Class: elasticflow.SLO, Curve: curve, MinGPUs: minGPUs, MaxGPUs: 4,
		}
	}
	// A and B occupy 3 of the 4 GPUs during the first slot.
	a := mk("A", 1, 1, 1)
	b := mk("B", 1.5, 1, 2)
	c := mk("C", 3, 2, 1)
	mss := sched.MinimumSatisfactoryShare(0, []*elasticflow.Job{a, b, c}, 4)
	fmt.Println("C's plan:", mss["C"].PerSlot())
	fmt.Println("C's GPU time:", mss["C"].GPUTime)
	// Output:
	// C's plan: [1 4]
	// C's GPU time: 5
}

// Example_bestEffort mixes an SLO job with a best-effort job: the guarantee
// is reserved first, leftovers accelerate the best-effort work (§4.4).
func Example_bestEffort() {
	sched := elasticflow.NewDefaultScheduler()
	curve, _ := elasticflow.NewCurveFromPoints(map[int]float64{1: 1, 2: 1.8, 4: 3})
	slo := &elasticflow.Job{
		ID: "slo", GlobalBatch: 8, TotalIters: 7200, Deadline: 7200,
		Class: elasticflow.SLO, Curve: curve, MinGPUs: 1, MaxGPUs: 4,
	}
	be := &elasticflow.Job{
		ID: "be", GlobalBatch: 8, TotalIters: 1e6, Deadline: math.Inf(1),
		Class: elasticflow.BestEffort, Curve: curve, MinGPUs: 1, MaxGPUs: 4,
	}
	dec := sched.Schedule(0, []*elasticflow.Job{slo, be}, 4)
	fmt.Println("slo gets:", dec.Alloc["slo"] >= 1)
	fmt.Println("best-effort gets leftovers:", dec.Alloc["be"] >= 1)
	fmt.Println("within capacity:", dec.Alloc["slo"]+dec.Alloc["be"] <= 4)
	// Output:
	// slo gets: true
	// best-effort gets leftovers: true
	// within capacity: true
}
