package netlist

// S27ish exposes the s27-style test circuit to the external fuzz tests.
const S27ish = s27ish
