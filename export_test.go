package circ

// TasSrc exposes the test-and-set model to the package's external tests.
const TasSrc = tasSrc
