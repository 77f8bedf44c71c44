package phy

import (
	"zigzag/internal/frame"
	"zigzag/internal/modem"
)

// Transmitter converts frames into baseband sample waveforms.
type Transmitter struct {
	Config
}

// NewTransmitter returns a transmitter with the given configuration.
func NewTransmitter(cfg Config) *Transmitter { return &Transmitter{Config: cfg} }

// Symbols encodes f into constellation symbols: the BPSK preamble
// followed by the frame body modulated at f.Scheme.
func (t *Transmitter) Symbols(f *frame.Frame) ([]complex128, error) {
	bits, err := f.Bits(nil)
	if err != nil {
		return nil, err
	}
	syms := t.PreambleSymbols()
	syms = append(syms, modem.Modulate(nil, f.Scheme, bits)...)
	return syms, nil
}

// Waveform encodes f into the transmitted chip stream (symbols upsampled
// by SamplesPerSymbol with a rectangular pulse, matching the prototype).
func (t *Transmitter) Waveform(f *frame.Frame) ([]complex128, error) {
	syms, err := t.Symbols(f)
	if err != nil {
		return nil, err
	}
	return modem.Upsample(nil, syms, t.SamplesPerSymbol), nil
}
