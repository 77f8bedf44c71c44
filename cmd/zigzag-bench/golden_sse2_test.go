//go:build amd64 && !purego

package main

// goldenDir holds the figure goldens of the SSE2 kernel forms.
const goldenDir = "testdata"
