//go:build !amd64 || purego

package main

// goldenDir holds the figure goldens of the Go kernel forms.
const goldenDir = "testdata/purego"
