package checkers_test

import (
	"testing"

	"scioto/tools/sciotolint/analysis/analysistest"
	"scioto/tools/sciotolint/checkers"
)

func TestRelaxedWord(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), checkers.RelaxedWord, "relaxedword", "pgas")
}

func TestNbComplete(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), checkers.NbComplete, "nbcomplete")
}

func TestLocalEscape(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), checkers.LocalEscape, "localescape")
}

func TestProcEscape(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), checkers.ProcEscape, "procescape")
}

func TestNoAllocGate(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), checkers.NoAllocGate, "noallocgate")
}

func TestJournalAppend(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), checkers.JournalAppend, "journalappend")
}

func TestCollCongruence(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), checkers.CollCongruence, "collcongruence")
}

func TestObsDeterminism(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), checkers.ObsDeterminism, "obsdeterminism")
}
