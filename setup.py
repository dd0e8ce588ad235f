from setuptools import setup, find_packages

setup(
    name="repro",
    version="1.0.0",
    description=(
        "CFTCG reproduction: test case generation for Simulink-like "
        "models through code based fuzzing"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
)
