package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/slm"
	"repro/internal/store"
)

var errIndexBuild = errors.New("index build failed")

// buildFailsSource is a text source whose Records panics after its first
// call: NewHybrid's extraction reads it first, the index build next. The
// second call panics once the extraction is running, or after a while.
type buildFailsSource struct {
	*store.TextStore
	calls atomic.Int32
}

func (s *buildFailsSource) Records() []store.Record {
	if s.calls.Add(1) == 1 {
		return s.TextStore.Records()
	}
	for deadline := time.Now().Add(5 * time.Second); !extracting() && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	panic(errIndexBuild)
}

// extracting reports whether a goroutine is inside an extraction.
func extracting() bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("extract.(*Engine).ExtractDocs"))
}

// TestNewHybridJoinsExtraction panics the index build while the
// extraction runs beside it: the panic leaves NewHybrid only once the
// extraction has ended, so no part of a failed build outlives it.
func TestNewHybridJoinsExtraction(t *testing.T) {
	docs := store.NewTextStore("notes")
	for i := range 2000 {
		docs.Add(fmt.Sprintf("d%d", i), fmt.Sprintf("Patient P%d received Drug D%d on 2024-01-%02d and reported nausea.", i, i%7, 1+i%28))
	}
	func() {
		defer func() {
			if v := recover(); v != errIndexBuild {
				t.Errorf("recovered %v, want %v", v, errIndexBuild)
			}
		}()
		NewHybrid(store.NewMulti().Add(&buildFailsSource{TextStore: docs}), slm.NewNER(), HybridOptions{Workers: 2})
		t.Error("NewHybrid returned")
	}()
	if extracting() {
		t.Error("the extraction outlived NewHybrid")
	}
}
