package experiments

import (
	"os"
	"testing"
)

func TestSmokeAll(t *testing.T) {
	type fn func() (*Table, error)
	cases := map[string]fn{
		"E1":  func() (*Table, error) { return CrawlThroughput([]int{4}, 3, 1) },
		"E2":  func() (*Table, error) { return ScaleIngest(150, 1) },
		"E3":  func() (*Table, error) { return PipelineWorkers(3, []int{2}, 1) },
		"E4":  func() (*Table, error) { return NERQuality(120, 60, 1) },
		"E5":  func() (*Table, error) { return IOCProtection(40, 1) },
		"E6":  func() (*Table, error) { return LabelingStrategies(60, 30, 1) },
		"E7":  func() (*Table, error) { return RelationExtraction(30, 1) },
		"E8":  func() (*Table, error) { return FusionExperiment(4, 1) },
		"E9":  func() (*Table, error) { return OntologyCoverage(4, 1) },
		"E10": func() (*Table, error) { return SearchScenarios(4, 1) },
		"E11": func() (*Table, error) { return CypherScaling([]int{500}, 1) },
		"E12": func() (*Table, error) { return LayoutScaling([]int{200}, 0.5, 1) },
		"E13": func() (*Table, error) { return ExploreOps(2000, 1) },
		"E14": func() (*Table, error) { return EmbeddingFeatures(60, 30, 1) },
	}
	for id, f := range cases {
		tab, err := f()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		tab.Fprint(os.Stdout)
	}
}

// TestTrainNERCachesPerDocCount: the cache keys on the corpus size as well
// as the seed, so an experiment gets the model its own size trains whatever
// ran before it.
func TestTrainNERCachesPerDocCount(t *testing.T) {
	small, err := TrainNER(7, 10)
	if err != nil {
		t.Fatal(err)
	}
	large, err := TrainNER(7, 20)
	if err != nil {
		t.Fatal(err)
	}
	if small == large {
		t.Fatal("TrainNER(7, 20) returned the extractor cached for TrainNER(7, 10)")
	}
	again, err := TrainNER(7, 10)
	if err != nil {
		t.Fatal(err)
	}
	if again != small {
		t.Error("TrainNER(7, 10) trained again instead of returning its cached extractor")
	}
}
